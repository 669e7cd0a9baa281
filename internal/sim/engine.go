package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Engine is a discrete-event scheduler. Simulated processes are goroutines
// (or flat machines, see flat.go), but the engine hands control only to
// processes whose pending events it has dispatched, one event at a time in
// deterministic (virtual time, sequence) order, so every simulated result is
// reproducible and data-race-free. Sequential (t, seq) dispatch is the
// engine's one semantics: there is no other loop.
//
// The loop has no goroutine of its own. It runs on whichever goroutine holds
// control — Run's caller, or the goroutine proc that just blocked or
// finished — and that goroutine hands control straight to the next proc
// over its resume channel: one handoff per proc switch, none when a proc's
// own wake is next.
//
// Typical use:
//
//	e := sim.NewEngine()
//	e.Go("rank0", func(p *sim.Proc) { ... })
//	e.Go("rank1", func(p *sim.Proc) { ... })
//	if err := e.Run(); err != nil { ... }
type Engine struct {
	pq    eventHeap
	seq   uint64
	now   Time
	procs []*Proc

	stopped bool
	failure error

	// home is where the loop hands control back to Run's goroutine when the
	// run is over; cbPanic is a callback panic caught on whichever goroutine
	// carried the loop, re-raised by Run on its own.
	home    chan struct{}
	cbPanic any

	stats Stats

	// Flat machine execution state (flat.go): flat selects the mode for
	// GoMachine spawns, arena holds flat procs in fixed-capacity slabs,
	// arenaLive counts flat procs not yet done, liveProcBytes is the current
	// per-proc overhead account (peak recorded in stats).
	flat          bool
	arena         [][]Proc
	arenaLive     int
	liveProcBytes uint64

	// emit, when installed, receives observer payloads (trace records) in
	// dispatch order.
	emit func(payload any)

	// quiesce holds one-shot callbacks to run the next time the event queue
	// drains completely (AtQuiesce). Fired FIFO, one per drain, in scheduler
	// context; a callback that schedules new events resumes normal dispatch
	// before the next quiesce callback fires.
	quiesce []func()
}

// Stats counts scheduler activity, for capacity planning and engine
// benchmarks.
type Stats struct {
	// Dispatched is the number of events popped and handled.
	Dispatched uint64
	// Callbacks is the subset that were scheduler callbacks (At/AtArg).
	Callbacks uint64
	// Resumes is the subset that handed control to a process.
	Resumes uint64
	// StaleWakes is the subset dropped as stale process wakes.
	StaleWakes uint64
	// CoalescedWakes counts Unpark requests dropped before ever entering
	// the queue because an identical-time wake was already pending (or the
	// target process had finished).
	CoalescedWakes uint64
	// MaxHeapDepth is the high-water mark of the pending-event queue.
	MaxHeapDepth int
	// ParallelBatches always reads zero.
	//
	// Deprecated: epoch dispatch is gone; kept so existing readers compile.
	ParallelBatches uint64
	// MaxBatchWidth always reads zero.
	//
	// Deprecated: epoch dispatch is gone; kept so existing readers compile.
	MaxBatchWidth int
	// BarrierStalls always reads zero.
	//
	// Deprecated: epoch dispatch is gone; kept so existing readers compile.
	BarrierStalls uint64
	// RegroupYields always reads zero.
	//
	// Deprecated: epoch dispatch is gone; kept so existing readers compile.
	RegroupYields uint64
	// NarrowedPairs always reads zero.
	//
	// Deprecated: epoch dispatch is gone; kept so existing readers compile.
	NarrowedPairs uint64
	// PeakProcBytes is the high-water mark of per-process overhead bytes, as
	// accounted by the engine: the Proc facade plus machine state for flat
	// procs, plus a goroutine stack/descriptor/channel floor for
	// goroutine-backed ones (see flat.go). Deterministic — it counts data
	// structures, not allocator behavior — so it is comparable across
	// engines.
	PeakProcBytes uint64
	// ArenaSlots is the total flat-proc arena capacity allocated (slots, not
	// bytes); zero when no machine ran flat.
	ArenaSlots int
	// ArenaPeakLive is the peak number of live flat procs; the ratio
	// ArenaPeakLive/ArenaSlots is the arena utilization.
	ArenaPeakLive int
}

// Stats returns a snapshot of scheduler counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.MaxHeapDepth = e.pq.maxDepth
	return s
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// SetWorkers does nothing: dispatch is always sequential.
//
// Deprecated: epoch dispatch is gone; kept so existing callers compile.
func (e *Engine) SetWorkers(int) {}

// SetEmitter installs fn as the engine's emission sink (Proc.Emit, Emit).
// fn is called synchronously, in dispatch order, from scheduler or process
// context — never concurrently. Call before Run; nil removes the sink.
func (e *Engine) SetEmitter(fn func(payload any)) { e.emit = fn }

// Emit forwards payload to the installed emitter from contexts that have no
// Proc (scheduler callbacks, substrate hooks). A no-op without an emitter.
func (e *Engine) Emit(payload any) {
	if e.emit != nil {
		e.emit(payload)
	}
}

// AtQuiesce schedules fn to run in scheduler context the next time the event
// queue drains completely — i.e. when every process is parked or done and no
// callback is pending, background alarms (AtBackground) excepted. This is
// the engine's quiescence point: no message can be in flight, because
// anything in flight would still have a delivery event
// queued. Callbacks fire one per drain in FIFO order; a callback that wakes
// processes resumes normal dispatch before the next one fires. A drain with
// quiesce callbacks pending is not a deadlock — the run ends only when both
// the queue and the quiesce list are empty.
func (e *Engine) AtQuiesce(fn func()) { e.quiesce = append(e.quiesce, fn) }

// popQuiesce fires the oldest pending quiesce callback, reporting whether one
// ran. Called by the dispatch loop when the queue drains.
func (e *Engine) popQuiesce() bool {
	if len(e.quiesce) == 0 {
		return false
	}
	fn := e.quiesce[0]
	e.quiesce = e.quiesce[1:]
	fn()
	return true
}

// Now reports the engine's current virtual time: the time of the most
// recently dispatched event.
func (e *Engine) Now() Time { return e.now }

// Procs returns the processes spawned so far, in spawn order.
func (e *Engine) Procs() []*Proc { return e.procs }

// At schedules fn to run in scheduler context at virtual time t. Scheduling
// in the past is clamped to the current time (the event still runs after
// every event already pending at that time, preserving causality).
func (e *Engine) At(t Time, fn func()) {
	e.schedule(event{t: t, fn: fn})
}

// AtBackground is At for pre-scheduled alarms — a fault injector's crash
// wake, a watchdog — that are not part of the simulated message flow. A
// pending background event does not count against quiescence: AtQuiesce
// callbacks fire once everything EXCEPT background alarms has drained, so a
// crash scheduled minutes ahead cannot hold a checkpoint cut hostage. The
// alarm still fires normally (in time order) when nothing overtakes it.
func (e *Engine) AtBackground(t Time, fn func()) {
	e.schedule(event{t: t, fn: fn, background: true})
}

// AtArg is At for the allocation-free form: a static callback plus a
// caller-pooled argument, avoiding the per-event closure.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	e.schedule(event{t: t, fnA: fn, arg: arg})
}

// schedule clamps a new callback event to the current time and queues it.
func (e *Engine) schedule(ev event) {
	if ev.t < e.now {
		ev.t = e.now
	}
	e.push(ev)
}

// push assigns the next sequence number to ev and queues it, returning the
// sequence number.
func (e *Engine) push(ev event) uint64 {
	e.seq++
	ev.seq = e.seq
	e.pq.push(ev)
	return e.seq
}

// Go spawns a simulated process that starts at the current virtual time.
// The process body runs on its own goroutine but executes only while it
// holds control, so process code never races with other processes or with
// scheduler callbacks. Spawn before Run.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		id:     len(e.procs),
		name:   name,
		now:    e.now,
		state:  stateScheduled,
		resume: make(chan struct{}, 1),
	}
	p.cost = uint32(procBytes + goroutineOverheadBytes)
	e.chargeProc(p)
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume
		defer p.exit()
		body(p)
	}()
	p.timerSeq = e.push(event{t: e.now, proc: p, timer: true})
	return p
}

// engineAbort is panicked by Proc.Fatalf to unwind a process body; the
// spawn wrapper converts it into a recorded failure without a stack dump.
type engineAbort struct{ err error }

// Stop aborts the run after the current event completes. Pending events are
// discarded; Run returns nil unless a failure was already recorded.
func (e *Engine) Stop() { e.stopped = true }

// Fail aborts the run and makes Run return err. The first failure wins.
func (e *Engine) Fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.stopped = true
}

// DeadlockError reports that the event queue drained while simulated
// processes were still blocked.
type DeadlockError struct {
	// Parked lists the blocked processes (name, state and local time).
	Parked []string
	// At is the virtual time at which the simulation stalled.
	At Time
}

// Error formats the deadlock report.
func (d *DeadlockError) Error() string {
	return fmt.Sprintf("simulation deadlock at %v: %d process(es) still blocked: %s",
		d.At, len(d.Parked), strings.Join(d.Parked, ", "))
}

// Run dispatches events in virtual-time order until the queue drains, a
// process panics, or Stop/Fail is called. It returns a *DeadlockError if
// processes remain blocked when the queue empties, the recorded error on
// Fail or process panic, and nil otherwise. A panicking callback panics Run
// with the same value.
func (e *Engine) Run() error {
	if next := e.run(); next != nil {
		e.home = make(chan struct{}, 1)
		e.handoff(next)
		<-e.home
	}
	if r := e.cbPanic; r != nil {
		panic(r)
	}
	if e.failure != nil {
		return e.failure
	}
	var parked []string
	for _, p := range e.procs {
		if p.state != stateDone {
			parked = append(parked, fmt.Sprintf("%s(%s,t=%v)", p.name, p.state, p.now))
		}
	}
	if len(parked) > 0 && !e.stopped {
		sort.Strings(parked)
		return &DeadlockError{Parked: parked, At: e.now}
	}
	return nil
}

// run is the engine's one loop: it dispatches events in (t, seq) order on
// the calling goroutine until a goroutine-backed proc must take control,
// and returns that proc, already marked running. It returns nil when the
// run is over: the queue drained or the run stopped.
func (e *Engine) run() *Proc {
	defer e.catch()
	for {
		if next, ok := e.step(); next != nil || !ok {
			return next
		}
	}
}

// catch stops the run on a callback panic and keeps the value for Run to
// re-raise: the loop may be running on a bystander proc's goroutine, which
// must neither absorb the panic nor be blamed for it. (Machine steps recover
// their own panics, so only a callback's can reach run.)
func (e *Engine) catch() {
	if r := recover(); r != nil {
		e.cbPanic = r
		e.stopped = true
	}
}

// handoff passes control to next, or back to Run's goroutine when the run is
// over (next == nil). The caller must not touch engine state afterwards.
func (e *Engine) handoff(next *Proc) {
	if next == nil {
		e.home <- struct{}{}
		return
	}
	next.resume <- struct{}{}
}

// step dispatches the earliest pending event — or, when only background
// alarms remain, the oldest quiesce callback. Callbacks and flat machines run
// inline; a goroutine-backed proc whose wake it is comes back as next, marked
// running. ok reports whether the run goes on.
func (e *Engine) step() (next *Proc, ok bool) {
	if e.stopped {
		return nil, false
	}
	if e.pq.len() == e.pq.bg && e.popQuiesce() {
		return nil, true // quiescent: only background alarms (if any) remain
	}
	if e.pq.len() == 0 {
		return nil, false
	}
	ev := e.pq.pop()
	e.now = ev.t
	e.stats.Dispatched++
	if ev.isCallback() {
		e.stats.Callbacks++
		ev.invoke()
		return nil, true
	}
	p := ev.proc
	if p != nil && !ev.timer && ev.t == p.lastWakeAt {
		p.lastWakeLive = false // the coalescing anchor has left the queue
	}
	if p == nil || !p.wantsWake(ev) {
		e.stats.StaleWakes++
		return nil, true // stale wake: the condition it signalled was already consumed
	}
	e.stats.Resumes++
	if p.now < ev.t {
		p.now = ev.t
	}
	p.state = stateRunning
	if !p.flat {
		return p, true
	}
	p.runMachine()
	if p.panicked != nil {
		e.Fail(p.panicked)
	}
	if p.state == stateDone {
		e.releaseProc(p)
	}
	return nil, true
}
