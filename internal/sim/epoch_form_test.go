package sim

import (
	"fmt"
	"sort"
	"testing"
)

// refFormation is the map-based epoch formation the dense tables replaced:
// pop the heap in (t, seq) order, union every event's resources through a
// map-backed union-find, and number groups by first event. It returns the
// events in pop order, each event's group index, and each touched
// resource's owning group.
func refFormation(h eventHeap, resOf func(*event) []Res) (order []event, group []int, owner map[Res]int) {
	parent := make(map[Res]Res)
	find := func(r Res) Res {
		for {
			p, ok := parent[r]
			if !ok || p == r {
				if !ok {
					parent[r] = r
				}
				return r
			}
			parent[r] = parent[p]
			r = p
		}
	}
	var res [][]Res
	for h.len() > 0 {
		ev := h.pop()
		order = append(order, ev)
		res = append(res, resOf(&ev))
	}
	for _, rs := range res {
		root := find(rs[0])
		for _, r := range rs[1:] {
			if r2 := find(r); r2 != root {
				parent[r2] = root
			}
		}
	}
	rootGroup := make(map[Res]int)
	for _, rs := range res {
		root := find(rs[0])
		g, ok := rootGroup[root]
		if !ok {
			g = len(rootGroup)
			rootGroup[root] = g
		}
		group = append(group, g)
	}
	owner = make(map[Res]int)
	for r := range parent {
		owner[r] = rootGroup[find(r)]
	}
	return order, group, owner
}

// refCommit is the reference re-commit: leftovers and spills stably sorted
// by (t, group, seq) and numbered from seq+1. It returns the re-sequenced
// events and the timer seq each proc ends up keyed to.
func refCommit(left [][]event, seq uint64) ([]event, map[*Proc]uint64) {
	var all []event
	var byGroup []int
	for gi, evs := range left {
		for _, ev := range evs {
			all = append(all, ev)
			byGroup = append(byGroup, gi)
		}
	}
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ea, eb := &all[idx[a]], &all[idx[b]]
		if ea.t != eb.t {
			return ea.t < eb.t
		}
		if byGroup[idx[a]] != byGroup[idx[b]] {
			return byGroup[idx[a]] < byGroup[idx[b]]
		}
		return ea.seq < eb.seq
	})
	out := make([]event, 0, len(all))
	timers := make(map[*Proc]uint64)
	for _, i := range idx {
		ev := all[i]
		seq++
		ev.seq = seq
		if ev.proc != nil && ev.timer {
			timers[ev.proc] = seq
		}
		out = append(out, ev)
	}
	return out, timers
}

// drainHeap pops a copy of h in (t, seq) order.
func drainHeap(h *eventHeap) []event {
	c := eventHeap{ev: append([]event(nil), h.ev...)}
	var out []event
	for c.len() > 0 {
		out = append(out, c.pop())
	}
	return out
}

// fuzzBytes hands out fuzz input one byte at a time, zero once exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// FuzzEpochFormation checks epoch formation and commit against the
// map-based reference on random pending events — time ties, tagged and
// untagged callbacks, proc footprints, background alarms — over several
// epochs: the same group for every event, the same pop order per group, the
// same owner for every resource, footprints called once per proc in (t, seq)
// order, and the same commit re-sequencing, timer keys and heap accounting.
func FuzzEpochFormation(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 0, 7, 3, 1, 4, 9, 2, 2, 6, 1, 0, 3, 8, 8, 1, 5})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 255, 17, 42, 3, 3, 3, 9, 100, 7, 64, 2, 1, 1, 0, 250, 33, 12, 5, 77, 91, 6, 6, 6, 2, 40})
	f.Add([]byte("epoch formation must match the map-based reference byte for byte"))
	const maxRes = 12
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		e := NewEngine()
		var calls []*Proc
		nprocs := 1 + int(in.next()%8)
		procs := make([]*Proc, nprocs)
		fps := make(map[*Proc][]Res)
		for i := range procs {
			p := &Proc{eng: e, id: i, state: stateScheduled}
			procs[i] = p
			n := int(in.next() % 4) // 0: nil footprint, else 0-2 resources
			if n == 0 {
				continue
			}
			var fp []Res
			for j := 1; j < n; j++ {
				fp = append(fp, Res(in.next()%maxRes))
			}
			fps[p] = fp
			p.footprint = func(buf []Res) []Res {
				calls = append(calls, p)
				return append(buf, fp...)
			}
		}
		resOf := func(ev *event) []Res {
			if ev.isCallback() {
				if ev.nres == 0 {
					return []Res{Global}
				}
				return append([]Res(nil), ev.res[:ev.nres]...)
			}
			if fp := fps[ev.proc]; len(fp) > 0 {
				return fp
			}
			return []Res{Global}
		}
		nop := func(any) {}
		id := 0
		addEvent := func(t Time) {
			id++
			switch k := in.next() % 5; k {
			case 0:
				e.schedule(event{t: t, fnA: nop, arg: id})
			case 1:
				e.schedule(event{t: t, fnA: nop, arg: id, background: true})
			case 2:
				ev := event{t: t, fnA: nop, arg: id}
				n := 1 + int(in.next()%4)
				for j := 0; j < n; j++ {
					ev.res[j] = Res(in.next() % maxRes)
				}
				ev.nres = uint8(n)
				e.schedule(ev)
			default:
				p := procs[int(in.next())%nprocs]
				e.seq++
				e.pq.push(event{t: t, seq: e.seq, proc: p, timer: k == 3, arg: id})
			}
		}
		for n := 1 + int(in.next()%48); n > 0; n-- {
			addEvent(Time(in.next() % 8))
		}

		for epoch := 0; epoch < 3 && e.pq.len() > 0; epoch++ {
			order, group, owner := refFormation(eventHeap{ev: append([]event(nil), e.pq.ev...)}, resOf)
			calls = calls[:0]
			ep := e.formEpoch()
			if e.now != order[0].t {
				t.Fatalf("epoch %d: floor %v, want %v", epoch, e.now, order[0].t)
			}
			if e.pq.len() != 0 || e.pq.bg != 0 {
				t.Fatalf("epoch %d: global heap not taken whole: len %d bg %d", epoch, e.pq.len(), e.pq.bg)
			}
			// Footprints ran once per proc, in (t, seq) order of first event.
			var wantCalls []*Proc
			seen := make(map[*Proc]bool)
			for i := range order {
				if p := order[i].proc; p != nil && p.footprint != nil && !seen[p] {
					seen[p] = true
					wantCalls = append(wantCalls, p)
				}
			}
			if fmt.Sprint(calls) != fmt.Sprint(wantCalls) {
				t.Fatalf("epoch %d: footprint calls %v, want %v", epoch, calls, wantCalls)
			}
			// Same groups, indices and pop order per group.
			nGroups := 0
			for _, g := range group {
				if g >= nGroups {
					nGroups = g + 1
				}
			}
			if len(ep.groups) != nGroups {
				t.Fatalf("epoch %d: %d groups, want %d", epoch, len(ep.groups), nGroups)
			}
			for gi, g := range ep.groups {
				if g.idx != gi {
					t.Fatalf("epoch %d: group %d has idx %d", epoch, gi, g.idx)
				}
				var want []event
				bg := 0
				for i := range order {
					if group[i] == gi {
						want = append(want, order[i])
						if order[i].background {
							bg++
						}
					}
				}
				got := drainHeap(&g.pq)
				if len(got) != len(want) || g.pq.bg != bg || g.pq.maxDepth != len(want) {
					t.Fatalf("epoch %d group %d: %d events (bg %d, depth %d), want %d (bg %d)",
						epoch, gi, len(got), g.pq.bg, g.pq.maxDepth, len(want), bg)
				}
				for i := range got {
					if got[i].arg != want[i].arg || got[i].seq != want[i].seq || got[i].t != want[i].t {
						t.Fatalf("epoch %d group %d: pop %d is event %v, want %v", epoch, gi, i, got[i].arg, want[i].arg)
					}
				}
			}
			// Same owner for every resource.
			for r := Res(0); r < maxRes; r++ {
				got := -1
				if int(r) < len(ep.owner) && ep.owner[r] != nil {
					got = ep.owner[r].idx
				}
				want, ok := owner[r]
				if !ok {
					want = -1
				}
				if got != want {
					t.Fatalf("epoch %d: resource %d owned by group %d, want %d", epoch, r, got, want)
				}
			}

			// Stand in for execution: each group dispatches a prefix of its
			// heap, and may schedule a local event and spill a regroup yield.
			e.epoch = ep
			left := make([][]event, len(ep.groups))
			depth := 0
			for gi, g := range ep.groups {
				for k := int(in.next()) % (g.pq.len() + 1); k > 0; k-- {
					g.now = g.pq.pop().t
				}
				if c := in.next(); c%2 == 1 {
					id++
					g.pushLocal(event{t: g.now + Time(c%5), fnA: nop, arg: id, background: c%3 == 0})
				}
				if c := in.next(); c%2 == 1 {
					id++
					g.seq++
					g.spill = append(g.spill, event{t: g.now, seq: g.seq, proc: procs[int(c)%nprocs], timer: true, arg: id})
				}
				left[gi] = append(append([]event(nil), g.spill...), drainHeap(&g.pq)...)
				depth += g.pq.maxDepth
			}
			e.epoch = nil
			want, timers := refCommit(left, e.seq)
			wantBg := 0
			for _, ev := range want {
				if ev.background {
					wantBg++
				}
			}
			wantMaxDepth := e.pq.maxDepth
			if len(want) > wantMaxDepth {
				wantMaxDepth = len(want)
			}
			wantEpochDepth := e.epochDepthMax
			if depth > wantEpochDepth {
				wantEpochDepth = depth
			}
			e.commitEpoch(ep)
			got := drainHeap(&e.pq)
			if len(got) != len(want) {
				t.Fatalf("epoch %d: commit left %d events, want %d", epoch, len(got), len(want))
			}
			for i := range got {
				if got[i].arg != want[i].arg || got[i].seq != want[i].seq || got[i].t != want[i].t {
					t.Fatalf("epoch %d: commit slot %d is event %v seq %d, want %v seq %d",
						epoch, i, got[i].arg, got[i].seq, want[i].arg, want[i].seq)
				}
			}
			for p, seq := range timers {
				if p.timerSeq != seq {
					t.Fatalf("epoch %d: proc %d timer keyed to %d, want %d", epoch, p.id, p.timerSeq, seq)
				}
			}
			if e.pq.bg != wantBg || e.pq.maxDepth != wantMaxDepth || e.epochDepthMax != wantEpochDepth {
				t.Fatalf("epoch %d: heap bg %d maxDepth %d epochDepth %d, want %d %d %d", epoch,
					e.pq.bg, e.pq.maxDepth, e.epochDepthMax, wantBg, wantMaxDepth, wantEpochDepth)
			}
			// Between epochs the scheduler may push more work, unsorting the
			// heap the commit left sorted.
			for n := int(in.next() % 4); n > 0; n-- {
				addEvent(e.now + Time(in.next()%8))
			}
		}
	})
}

// exchanger is one side of a synthetic pair exchange: side 0 wakes its peer
// and sleeps, side 1 parks until woken. Runs forever.
type exchanger struct {
	peer *Proc
	side int
	d    Time
}

func (m *exchanger) Step(p *Proc) Flow {
	if m.side == 1 {
		p.Park()
		return More
	}
	m.peer.UnparkAt(p.Now())
	p.Sleep(m.d)
	return More
}

// TestEpochLoopAllocationFree pins the reuse of epoch tables, groups and
// buffers: at width 1, once a steady 64-proc pair exchange has warmed up,
// forming, running and committing an epoch allocates nothing. Footprints
// alternate between pairs and quads each epoch, so groups are re-formed and
// re-numbered from reused state every time.
func TestEpochLoopAllocationFree(t *testing.T) {
	e := NewEngine()
	e.SetWorkers(1)
	e.SetFlat(true)
	const procs = 64
	ms := make([]*exchanger, procs)
	ps := make([]*Proc, procs)
	for i := range ms {
		ms[i] = &exchanger{side: i % 2, d: Time(1+i%7) * Nanosecond}
		ps[i] = e.GoMachine(fmt.Sprintf("x%d", i), ms[i])
	}
	for i, p := range ps {
		i := i
		ms[i].peer = ps[i^1]
		p.SetRes(Res(1 + i))
		p.SetFootprint(func(buf []Res) []Res {
			pair := i &^ 1
			buf = append(buf, Res(1+pair), Res(2+pair))
			if e.EpochID()%2 == 1 {
				buf = append(buf, Res(1+(pair^2)))
			}
			return buf
		})
	}
	for i := 0; i < 200; i++ {
		if !e.stepEpoch() {
			t.Fatal("exchange stopped during warm-up")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !e.stepEpoch() {
			t.Fatal("exchange stopped")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state epoch allocates %.1f times, want 0", allocs)
	}
	if st := e.Stats(); st.MaxBatchWidth != procs/2 {
		t.Errorf("MaxBatchWidth = %d, want %d (one group per pair)", st.MaxBatchWidth, procs/2)
	}
}
