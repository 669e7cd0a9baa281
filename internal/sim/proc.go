package sim

import (
	"fmt"
	"runtime/debug"
)

// procState tracks where a simulated process is in its lifecycle.
type procState int8

const (
	// stateScheduled: the process has a pending timer event (its start event
	// or a Sleep/Advance wake) and may only be resumed by that exact timer.
	stateScheduled procState = iota
	// stateRunning: the process currently holds control.
	stateRunning
	// stateParked: the process is blocked on a condition and is resumed by
	// any Unpark event. Parked processes must re-check their condition on
	// wake (spurious wakes are possible and benign).
	stateParked
	// stateDone: the process body returned.
	stateDone
)

// String names the state for diagnostics.
func (s procState) String() string {
	switch s {
	case stateScheduled:
		return "scheduled"
	case stateRunning:
		return "running"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Proc is one simulated process: a goroutine with a private virtual clock,
// cooperatively scheduled by its Engine. All methods must be called from the
// process's own body except UnparkAt, which other processes and scheduler
// callbacks use to wake it.
type Proc struct {
	eng      *Engine
	id       int
	name     string
	now      Time
	state    procState
	timerSeq uint64        // sequence of the live timer event, when stateScheduled
	resume   chan struct{} // control handoff to a goroutine proc (nil for flat procs)
	panicked error

	// Machine execution state (flat.go): fm is the continuation machine (nil
	// for blocking Go bodies), flat marks procs stepped directly by the
	// dispatch loop (no goroutine, no channel), blocked records that the
	// current flat step invoked its one blocking primitive, and cost is the
	// engine's byte accounting for this proc (Stats.PeakProcBytes).
	fm      Machine
	flat    bool
	blocked bool
	cost    uint32

	// lastWakeAt / lastWakeLive track the most recently queued Unpark event
	// so duplicate wakes for the same virtual time can be coalesced instead
	// of queued. The live flag drops when that wake leaves the queue: a wake
	// may only be coalesced against one that is still pending, never against
	// one already consumed (whose re-check the process may have spent on an
	// earlier condition).
	lastWakeAt   Time
	lastWakeLive bool

	// Data is an arbitrary per-process slot for the layer above (the MPI
	// runtime stores its per-rank state here).
	Data any
}

// Emit forwards payload to the engine's emitter (SetEmitter) immediately, in
// dispatch order. A no-op without an emitter.
func (p *Proc) Emit(payload any) {
	p.checkStep("Emit")
	p.eng.Emit(payload)
}

// ID returns the spawn-order index of the process.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the process's local virtual clock.
func (p *Proc) Now() Time { return p.now }

// Engine returns the scheduling engine that owns this process.
func (p *Proc) Engine() *Engine { return p.eng }

// checkStep panics when a flat machine touches the facade after its step
// already blocked — code after the blocking primitive would execute before
// the wake's virtual time on the flat engine but after it on the goroutine
// engine, silently diverging. Free for every other proc kind.
func (p *Proc) checkStep(op string) {
	if p.flat && p.blocked {
		panic(fmt.Sprintf("proc %q: %s after the step's blocking primitive (flat-mode contract: block last)", p.name, op))
	}
}

// wantsWake reports whether a popped proc event is a live wake for p.
// Scheduled processes accept only their own timer; parked processes accept
// only unparks (any stale timer must predate the park); running/done drop
// everything.
func (p *Proc) wantsWake(ev event) bool {
	switch p.state {
	case stateScheduled:
		return ev.timer && ev.seq == p.timerSeq
	case stateParked:
		return !ev.timer
	default:
		return false
	}
}

// switchOut gives up control and returns once p is resumed. The caller must
// have already set p.state and scheduled/arranged a wake. A goroutine proc
// carries the dispatch loop on itself: if its own wake comes up first it
// simply returns, otherwise it hands control to the next holder and blocks on
// its resume channel.
// Flat machines cannot be suspended mid-step: the continuation is the next
// Step call, so switchOut only records that the step blocked — which is why a
// machine step may block at most once, as its last action (see flat.go).
func (p *Proc) switchOut() {
	if p.flat {
		if p.blocked {
			panic(fmt.Sprintf("proc %q: machine blocked twice in one step (flat-mode contract: one blocking primitive per step, as the last action)", p.name))
		}
		p.blocked = true
		return
	}
	e := p.eng
	next := e.run()
	if next == p {
		return
	}
	e.handoff(next)
	<-p.resume
}

// exit is the deferred epilogue of a goroutine proc (Go body or machine
// trampoline): it records a panic or abort, then finishes the proc. A body
// that calls runtime.Goexit finishes the same way.
func (p *Proc) exit() {
	if r := recover(); r != nil {
		p.recordPanic(r)
	}
	p.finish()
}

// finish retires a goroutine proc whose body has ended, carries the dispatch
// loop on and hands control to the next holder; the goroutine then ends.
func (p *Proc) finish() {
	e := p.eng
	p.state = stateDone
	if p.panicked != nil {
		e.Fail(p.panicked)
	}
	e.releaseProc(p)
	e.handoff(e.run())
}

// recordPanic converts a recovered body panic into the proc's failure: a
// Fatalf/Fail abort as given, anything else with its stack.
func (p *Proc) recordPanic(r any) {
	if abort, ok := r.(engineAbort); ok {
		p.panicked = abort.err
	} else {
		p.panicked = fmt.Errorf("proc %q panicked: %v\n%s", p.name, r, debug.Stack())
	}
}

// Advance moves the local clock forward by d, modeling local work that costs
// virtual time. If other events are pending before now+d the process yields
// through the event queue so that causality is preserved (another process
// cannot observe this one "in the past"); otherwise it is a cheap clock bump.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("proc %q: Advance(%v) with negative duration", p.name, d))
	}
	if p.fm != nil {
		// Machines: always a pure clock bump, on both engines. The yielding
		// slow path below would block mid-step in flat mode, and whether it
		// triggers depends on heap occupancy — letting it run only on the
		// goroutine engine would break flat-vs-goroutine identity. Machines
		// that want a yielding wait must use Sleep.
		p.checkStep("Advance")
		p.now += d
		return
	}
	target := p.now + d
	if min, ok := p.eng.pq.minTime(); !ok || min >= target {
		p.now = target
		return
	}
	p.sleepUntil(target)
}

// Sleep blocks the process for d of virtual time. Unlike Advance it always
// round-trips through the event queue.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("proc %q: Sleep(%v) with negative duration", p.name, d))
	}
	p.sleepUntil(p.now + d)
}

func (p *Proc) sleepUntil(t Time) {
	p.timerSeq = p.eng.push(event{t: t, proc: p, timer: true})
	p.state = stateScheduled
	p.switchOut()
}

// Park blocks the process until another process or a scheduler callback
// calls UnparkAt. Wakes may be spurious: callers must loop re-checking the
// condition they are waiting for. On return the local clock has advanced to
// at least the waker's unpark time.
func (p *Proc) Park() {
	p.state = stateParked
	p.switchOut()
}

// UnparkAt schedules a wake for p at virtual time at (clamped to the current
// engine time). It may be called by other processes or scheduler callbacks.
// Waking a process that is not parked when the wake fires is a harmless
// no-op, so wakers never need to know whether the sleeper already left.
//
// Duplicate wakes are coalesced: if a wake for the exact same virtual time is
// already queued, the new one is dropped. This is semantics-preserving — the
// queued wake (pushed earlier, so popped no later) fires at the same virtual
// time and parked processes re-check their condition on every wake, so the
// only thing suppressed is a zero-cost spurious re-check. Wakes for a process
// whose body already returned are likewise dropped.
func (p *Proc) UnparkAt(at Time) {
	e := p.eng
	if at < e.now {
		at = e.now
	}
	if p.state == stateDone || (p.lastWakeLive && p.lastWakeAt == at) {
		e.stats.CoalescedWakes++
		return
	}
	e.push(event{t: at, proc: p})
	p.lastWakeAt = at
	p.lastWakeLive = true
}

// Fatalf aborts the whole simulation, recording a formatted error that
// Engine.Run will return. It does not return.
func (p *Proc) Fatalf(format string, args ...any) {
	panic(engineAbort{err: fmt.Errorf("proc %q at %v: %s", p.name, p.now, fmt.Sprintf(format, args...))})
}

// Fail aborts the whole simulation with err exactly as given, preserving
// its concrete type for errors.Is/As inspection by Engine.Run's caller
// (unlike Fatalf, which flattens to a formatted string). It does not return.
func (p *Proc) Fail(err error) {
	panic(engineAbort{err: err})
}
