package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Conservative epoch scheduling (PDES-style parallel dispatch).
//
// When any process declares a resource footprint (SetFootprint) or any
// callback is tagged with resources (AtRes/AtArg), Run switches from the
// legacy sequential loop to epoch dispatch:
//
//  1. Formation (scheduler context): take every pending event in (t, seq)
//     order, ask each event what resources it touches — a process event pulls
//     the process's FootprintFn, a callback event carries its own tags, and
//     anything undeclared touches Global — and union the resources into
//     causally independent groups.
//  2. Execution: each group runs the classic sequential dispatch loop over
//     its own private heap, resuming only its own processes. Independent
//     groups run concurrently on a bounded worker pool; the group structure
//     is decided entirely at formation, so it is identical for any worker
//     count. Each group dispatches at most epochQuota events so that the
//     partition is refreshed as communication patterns shift.
//  3. Commit (scheduler context, after a full barrier): leftover and spilled
//     events return to the global heap in deterministic (t, group, local seq)
//     order with freshly assigned global sequence numbers, group counters
//     merge into the engine's Stats, and the earliest failure (by virtual
//     time, then group index) wins — byte-identical results for any width.
//
// Formation and commit cost time linear in the pending events plus one sort
// of compact keys, and allocate nothing once the engine's reused tables,
// groups and buffers have grown to the run's working size: resources index
// dense slices (Res ids are small and dense), a sorted event slice is
// already a valid heap, so group heaps and the re-committed global heap are
// filled by appending, and only the table entries the last epoch touched are
// reset.
//
// Soundness rests on the footprint contract: while a process runs inside a
// group it may only touch state covered by the resources its FootprintFn
// declared at formation. A process that needs a resource its group does not
// own must call YieldRegroup, which reschedules it into the next epoch where
// its (now wider) footprint merges the groups.

// epochQuota bounds how many events one group dispatches per epoch. Small
// enough that group structure tracks shifting communication patterns (a
// process that yielded to claim a new resource waits at most one quota's
// worth of events), large enough to amortize formation cost. Constant across
// worker counts, so grouping — and therefore every result — is too.
const epochQuota = 256

// epochState is the per-epoch bookkeeping shared by formation, execution
// and commit. The engine owns one and reuses it, with every table and group
// in it, across epochs.
type epochState struct {
	groups []*execGroup
	// owner maps each resource claimed this epoch, indexed by Res, to its
	// owning group; nil for resources the epoch does not claim. Written only
	// at formation, read concurrently by group execution.
	owner []*execGroup
	// parent is the formation's union-find forest over resources, indexed by
	// Res; -1 marks a resource the current epoch has not touched.
	parent []Res
	// touched lists the resources with live parent/owner entries, so the next
	// formation resets exactly those.
	touched []Res
	// keys and spare are sort scratch: formation's (t, seq) order, commit's
	// (t, group, seq) re-sequencing and the emission flush.
	keys  []evKey
	spare []event
	// id increments every epoch (footprint memoization keys off it).
	id uint64
}

// evKey is the compact sort key standing in for an event (or an emission)
// while it is ordered: virtual time, owning group index, sequence number,
// and the position of the keyed item in its source slice.
type evKey struct {
	t   Time
	seq uint64
	grp int32
	idx int32
}

// cmpKey orders keys by (t, group, seq) — a total order, since seq is unique
// within a group, so every sort of the same keys agrees.
func cmpKey(a, b evKey) int {
	switch {
	case a.t != b.t:
		return cmp.Compare(a.t, b.t)
	case a.grp != b.grp:
		return cmp.Compare(a.grp, b.grp)
	}
	return cmp.Compare(a.seq, b.seq)
}

// execGroup is one causally independent partition of an epoch's events. Its
// run loop is the sequential engine restricted to the group's resources.
type execGroup struct {
	eng *Engine
	idx int
	pq  eventHeap
	now Time
	// seq is the group-local tie-break counter for events pushed during
	// execution. It starts above every formation-assigned sequence number, so
	// within a group (t, seq) order is causal order, and it is group-local,
	// so it is identical for any worker count.
	seq uint64
	// quota is the remaining event budget this epoch.
	quota int
	// stats accumulates this group's scheduler counters, merged at commit.
	stats Stats
	// spill collects events to re-commit to the global heap beside the
	// heap's own leftovers: YieldRegroup reschedules and carried-over wakes.
	spill []event
	// emits buffers observer payloads (Proc.Emit/Engine.EmitAt) produced
	// during this group's execution; commitEpoch flushes them to the engine's
	// emitter in (t, group index, seq) order. Entries share the group-local
	// seq counter, so within a group emission order is causal order.
	emits []emitRec
	// failure is the group's first failure and the virtual time it happened.
	failure error
	failAt  Time
	// releasedBytes/releasedProcs buffer proc retirements (releaseProc) so
	// the engine-level live accounting is only touched at commit, in
	// scheduler context.
	releasedBytes uint64
	releasedProcs int
}

// emitRec is one buffered emission: the payload plus the (t, seq) key that
// orders it deterministically at the epoch barrier.
type emitRec struct {
	t       Time
	seq     uint64
	payload any
}

// pushLocal enqueues an event produced during this group's execution.
func (g *execGroup) pushLocal(ev event) uint64 {
	g.seq++
	ev.seq = g.seq
	g.pq.push(ev)
	return g.seq
}

// fail records the group's first failure.
func (g *execGroup) fail(err error) {
	if g.failure == nil {
		g.failure = err
		g.failAt = g.now
	}
}

// run dispatches the group's events in (t, seq) order until the local heap
// drains, the quota is spent, or the engine stops. This is the legacy
// sequential loop, scoped to one group. Whatever the heap still holds
// carries over to the next epoch: commit reads it in place.
func (g *execGroup) run() {
	e := g.eng
	for g.quota > 0 && g.pq.len() > 0 && !e.stopped.Load() {
		ev := g.pq.pop()
		g.quota--
		g.now = ev.t
		g.stats.Dispatched++
		if ev.isCallback() {
			g.stats.Callbacks++
			ev.invoke()
			continue
		}
		p := ev.proc
		if p != nil && !ev.timer && ev.t == p.lastWakeAt {
			p.lastWakeLive = false // the coalescing anchor has left the queue
		}
		if p == nil || !p.wantsWake(ev) {
			if p != nil && !ev.timer && p.state == stateScheduled && p.regroupEpoch == e.epochID {
				// The target yielded out of this epoch (YieldRegroup): its
				// resume timer fires only next epoch and may predate this
				// wake. Carry the wake over so commit re-orders it after the
				// timer instead of losing the condition it signals.
				g.spill = append(g.spill, ev)
				continue
			}
			g.stats.StaleWakes++
			continue // stale wake: the condition it signalled was already consumed
		}
		g.stats.Resumes++
		if p.now < ev.t {
			p.now = ev.t
		}
		e.resumeProc(p, g)
		if p.panicked != nil {
			g.fail(p.panicked)
			e.stopped.Store(true)
		}
		if p.state == stateDone {
			e.releaseProc(p, g)
		}
	}
}

// formEpoch partitions every pending event into independence groups. Called
// in scheduler context; deterministic for a given heap state.
func (e *Engine) formEpoch() *epochState {
	ep := &e.ep
	ep.id = e.epochID + 1
	e.epochID = ep.id
	for _, r := range ep.touched {
		ep.parent[r] = -1
		ep.owner[r] = nil
	}
	ep.touched = ep.touched[:0]

	evs := e.takePending()
	e.now = evs[0].t // epoch floor; monotone because spills never precede it

	// Union the resources of every event, in (t, seq) order: footprint
	// callbacks run here, once per proc per epoch, in that order.
	for i := range evs {
		res := e.eventRes(&evs[i], ep.id)
		root := ep.find(res[0])
		for _, r := range res[1:] {
			if r2 := ep.find(r); r2 != root {
				ep.parent[r2] = root
			}
		}
	}

	// Build groups in first-event order: deterministic indices. Each group's
	// events arrive in (t, seq) order, and a sorted slice is a valid heap.
	ep.groups = ep.groups[:0]
	for i := range evs {
		ev := &evs[i]
		root := ep.find(e.eventRes(ev, ep.id)[0])
		g := ep.owner[root]
		if g == nil {
			g = e.nextGroup(ep)
			ep.owner[root] = g
		}
		g.pq.ev = append(g.pq.ev, *ev)
		if ev.background {
			g.pq.bg++
		}
	}
	for _, g := range ep.groups {
		g.pq.maxDepth = len(g.pq.ev)
	}
	// Resources that merged transitively must also resolve to the owning
	// group for routing during execution.
	for _, r := range ep.touched {
		ep.owner[r] = ep.owner[ep.find(r)]
	}
	clear(evs)
	e.pq.ev = evs[:0]
	// The phase-shift flag is good for exactly one formation: every footprint
	// consulted above saw it and had its chance to retire stale claims.
	e.phaseShift = false
	return ep
}

// takePending empties the global heap in one step and returns its events
// sorted by (t, seq). After a commit the heap array is already sorted, so
// the common case is one linear check; otherwise compact keys are sorted and
// the events gathered once into the spare buffer.
func (e *Engine) takePending() []event {
	evs := e.pq.ev
	e.pq.ev = nil
	e.pq.bg = 0
	sorted := true
	for i := 1; i < len(evs); i++ {
		if a, b := &evs[i-1], &evs[i]; a.t > b.t || (a.t == b.t && a.seq > b.seq) {
			sorted = false
			break
		}
	}
	if sorted {
		return evs
	}
	ep := &e.ep
	keys := ep.keys[:0]
	for i := range evs {
		keys = append(keys, evKey{t: evs[i].t, seq: evs[i].seq, idx: int32(i)})
	}
	slices.SortFunc(keys, cmpKey)
	out := ep.spare[:0]
	for _, k := range keys {
		out = append(out, evs[k.idx])
	}
	clear(evs)
	ep.spare = evs[:0]
	ep.keys = keys
	return out
}

// nextGroup appends the epoch's next group, reusing the group (and its heap,
// spill and emit buffers) that held the same index in an earlier epoch. Past
// groups stay reachable beyond len(ep.groups) in the slice's backing array.
func (e *Engine) nextGroup(ep *epochState) *execGroup {
	idx := len(ep.groups)
	var g *execGroup
	if idx < cap(ep.groups) {
		g = ep.groups[:idx+1][idx]
	}
	if g == nil {
		g = &execGroup{}
	}
	*g = execGroup{
		eng:   e,
		idx:   idx,
		pq:    eventHeap{ev: g.pq.ev[:0]},
		now:   e.now,
		seq:   e.seq,
		quota: epochQuota,
		spill: g.spill[:0],
		emits: g.emits[:0],
	}
	ep.groups = append(ep.groups, g)
	return g
}

// find returns r's union-find root (with path halving), entering r as a
// singleton the first time this epoch touches it.
func (ep *epochState) find(r Res) Res {
	if int(r) >= len(ep.parent) {
		ep.grow(r)
	}
	par := ep.parent
	if par[r] < 0 {
		par[r] = r
		ep.touched = append(ep.touched, r)
		return r
	}
	for par[r] != r {
		par[r] = par[par[r]]
		r = par[r]
	}
	return r
}

// grow extends the dense resource tables to cover r.
func (ep *epochState) grow(r Res) {
	n := 2 * len(ep.parent)
	if n <= int(r) {
		n = int(r) + 1
	}
	for i := len(ep.parent); i < n; i++ {
		ep.parent = append(ep.parent, -1)
	}
	ep.owner = append(ep.owner, make([]*execGroup, n-len(ep.owner))...)
}

// eventRes resolves the resources one formation event touches. A callback's
// tags are read in place, so ev must stay put while the result is in use.
func (e *Engine) eventRes(ev *event, epochID uint64) []Res {
	if ev.isCallback() {
		if ev.nres == 0 {
			return globalResList
		}
		return ev.res[:ev.nres]
	}
	p := ev.proc
	if p == nil || p.footprint == nil {
		return globalResList
	}
	if p.fpEpoch != epochID {
		p.fpEpoch = epochID
		p.fpCache = p.footprint(p.fpCache[:0])
		if len(p.fpCache) == 0 {
			p.fpCache = append(p.fpCache, Global)
		}
	}
	return p.fpCache
}

var globalResList = []Res{Global}

// runEpochs is the parallel dispatch loop (used when any footprint or tagged
// callback exists; otherwise Run uses the legacy sequential loop).
func (e *Engine) runEpochs() {
	defer e.stopPool()
	for e.stepEpoch() {
	}
}

// stepEpoch runs one turn of the epoch loop — a quiesce callback, or one
// epoch's formation, execution and commit — and reports whether the run
// goes on.
func (e *Engine) stepEpoch() bool {
	if e.stopped.Load() {
		return false
	}
	if e.pq.len() == e.pq.bg && e.popQuiesce() {
		return true // quiescent: only background alarms (if any) remain
	}
	if e.pq.len() == 0 {
		return false
	}
	ep := e.formEpoch()
	e.epoch = ep
	width := len(ep.groups)
	e.stats.ParallelBatches++
	if width > e.stats.MaxBatchWidth {
		e.stats.MaxBatchWidth = width
	}
	workers := e.workers
	if workers > width {
		workers = width
	}
	if width > workers {
		e.stats.BarrierStalls += uint64(width - workers)
	}
	if workers <= 1 {
		for _, g := range ep.groups {
			g.run()
		}
	} else {
		e.dispatchPool(ep.groups, workers)
	}
	e.epoch = nil
	e.commitEpoch(ep)
	return true
}

// epochWork is one epoch's job for the persistent worker pool: the group
// list plus the shared claim counter and completion barrier. One instance is
// reused across epochs (the barrier guarantees exclusive access between them).
type epochWork struct {
	groups []*execGroup
	next   atomic.Int64
	wg     sync.WaitGroup
}

// drain claims and runs groups until none remain.
func (w *epochWork) drain() {
	for {
		i := int(w.next.Add(1)) - 1
		if i >= len(w.groups) {
			return
		}
		w.groups[i].run()
	}
}

// dispatchPool runs the epoch's groups on the persistent worker pool, growing
// it to workers-1 goroutines on demand (the scheduler thread is the last
// worker). Keeping the goroutines alive across epochs matters when most
// epochs are narrow: a coupled collective forms thousands of one- and
// two-group epochs, and spawning goroutines per epoch made dispatch at
// width N measurably slower than width 1. Which worker runs which group can
// never change results — groups touch disjoint resources by construction.
func (e *Engine) dispatchPool(groups []*execGroup, workers int) {
	if e.pool == nil {
		e.pool = make(chan *epochWork)
		e.poolWork = &epochWork{}
	}
	for e.poolSize < workers-1 {
		e.poolSize++
		// Capture the channel value: a worker spawned in the run's final epoch
		// may not receive anything before stopPool nils the field, and reading
		// e.pool from the goroutine would race with that write.
		pool := e.pool
		go func() {
			for w := range pool {
				w.drain()
				w.wg.Done()
			}
		}()
	}
	w := e.poolWork
	w.groups = groups
	w.next.Store(0)
	w.wg.Add(e.poolSize)
	for i := 0; i < e.poolSize; i++ {
		e.pool <- w
	}
	w.drain()
	w.wg.Wait()
	w.groups = nil
}

// stopPool retires the persistent worker pool when the run ends. Without it
// the pool goroutines would block on the work channel forever — engines are
// built per job, and a sweep builds hundreds.
func (e *Engine) stopPool() {
	if e.pool != nil {
		close(e.pool)
		e.pool = nil
		e.poolSize = 0
	}
}

// commitEpoch merges group results back into the engine: counters, the
// earliest failure, and leftover events re-sequenced deterministically.
func (e *Engine) commitEpoch(ep *epochState) {
	depth := 0
	yields := uint64(0)
	for _, g := range ep.groups {
		e.stats.Dispatched += g.stats.Dispatched
		e.stats.Callbacks += g.stats.Callbacks
		e.stats.Resumes += g.stats.Resumes
		e.stats.StaleWakes += g.stats.StaleWakes
		e.stats.CoalescedWakes += g.stats.CoalescedWakes
		yields += g.stats.RegroupYields
		depth += g.pq.maxDepth
		e.liveProcBytes -= g.releasedBytes
		e.arenaLive -= g.releasedProcs
		// Earliest failure wins, by (virtual time, group index) — an order
		// independent of worker scheduling.
		if g.failure != nil && (e.failure == nil || g.failAt < e.failureAt) {
			e.failure = g.failure
			e.failureAt = g.failAt
		}
	}
	if depth > e.epochDepthMax {
		e.epochDepthMax = depth
	}
	e.stats.RegroupYields += yields
	// A regroup-yield storm — many processes claiming resources their groups
	// did not own in the same epoch — signals a communication-pattern switch:
	// the claims that shaped the old groups are stale. Raise the phase-shift
	// flag so the next formation's footprints may retire quiescent claims
	// eagerly and re-widen, instead of inheriting the old merge for a full
	// decay window. Group execution is width-independent, so the yield count
	// and the threshold decision are too.
	if yields >= e.phaseStormThreshold() {
		e.phaseShift = true
		e.stats.PhaseRewidens++
	}
	// Flush buffered emissions in (t, group index, group-local seq) order —
	// the groups and their execution are width-independent, so the flushed
	// stream is byte-identical for any worker count. Flushed even on stop so
	// a failed traced run keeps the records of every group that executed
	// (groups race the stop flag, so only successful runs guarantee
	// cross-width byte identity).
	if e.emit != nil {
		e.flushEmits(ep)
	}
	if e.stopped.Load() {
		return // pending events are discarded, as in the sequential engine
	}
	// Re-commit leftovers and spills: (t, group index, local seq) order, with
	// fresh global sequence numbers. Group-local order is causal order; the
	// cross-group tie-break at equal times is by deterministic group index.
	// The global heap is empty here (formation took it whole), so the sorted
	// run goes straight in.
	keys := ep.keys[:0]
	for gi, g := range ep.groups {
		for i := range g.spill {
			ev := &g.spill[i]
			keys = append(keys, evKey{t: ev.t, seq: ev.seq, grp: int32(gi), idx: int32(i)})
		}
		n := len(g.spill)
		for i := range g.pq.ev {
			ev := &g.pq.ev[i]
			keys = append(keys, evKey{t: ev.t, seq: ev.seq, grp: int32(gi), idx: int32(n + i)})
		}
	}
	slices.SortFunc(keys, cmpKey)
	for _, k := range keys {
		g := ep.groups[k.grp]
		var ev *event
		if i := int(k.idx); i < len(g.spill) {
			ev = &g.spill[i]
		} else {
			ev = &g.pq.ev[i-len(g.spill)]
		}
		e.seq++
		ev.seq = e.seq
		if ev.proc != nil && ev.timer {
			// The proc is parked on this timer; re-key it to the new seq.
			ev.proc.timerSeq = e.seq
		}
		e.pq.push(*ev)
	}
	ep.keys = keys
	for _, g := range ep.groups {
		clear(g.spill)
		g.spill = g.spill[:0]
		clear(g.pq.ev)
		g.pq.ev = g.pq.ev[:0]
	}
}

// phaseStormThreshold is the per-epoch regroup-yield count that flags a
// phase change: a quarter of the processes, but at least two. Ordinary churn
// (one rank claiming one new pair) stays below it; a pattern switch — every
// rank re-pairing at once — clears it easily.
func (e *Engine) phaseStormThreshold() uint64 {
	th := uint64(len(e.procs) / 4)
	if th < 2 {
		th = 2
	}
	return th
}

// flushEmits hands the epoch's buffered emissions to the emitter in
// (t, group index, group-local seq) order. Within a group seq order is
// causal order, but timestamps are not monotone across groups — one group
// may run ahead of another in virtual time before the barrier — so the
// merged stream is sorted, not concatenated. The (group, seq) pair is
// unique, making the sort a total order.
func (e *Engine) flushEmits(ep *epochState) {
	keys := ep.keys[:0]
	for gi, g := range ep.groups {
		for i := range g.emits {
			er := &g.emits[i]
			keys = append(keys, evKey{t: er.t, seq: er.seq, grp: int32(gi), idx: int32(i)})
		}
	}
	slices.SortFunc(keys, cmpKey)
	for _, k := range keys {
		e.emit(ep.groups[k.grp].emits[k.idx].payload)
	}
	ep.keys = keys
	for _, g := range ep.groups {
		clear(g.emits)
		g.emits = g.emits[:0]
	}
}

// groupFor routes an engine call made during epoch execution to the group
// owning res. It panics when res is unowned and no global group exists —
// that means an event touched a resource outside its declared footprint.
func (e *Engine) groupFor(res Res) *execGroup {
	owner := e.epoch.owner
	if int(res) < len(owner) && owner[res] != nil {
		return owner[res]
	}
	if len(owner) > 0 && owner[Global] != nil {
		return owner[Global]
	}
	panic(fmt.Sprintf("sim: resource %d touched during an epoch that owns neither it nor Global (undeclared footprint)", res))
}
