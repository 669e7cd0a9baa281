package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// wakeLog records who ran at which virtual time, in dispatch order.
type wakeLog []string

func (l *wakeLog) add(who string, at Time) { *l = append(*l, fmt.Sprintf("%s@%v", who, at)) }

// logMachine logs each step and sleeps d between steps; after n sleeps it
// wakes peer (when set) and finishes.
type logMachine struct {
	log  *wakeLog
	name string
	n    int
	d    Time
	peer *Proc
	flag *bool
}

func (m *logMachine) Step(p *Proc) Flow {
	m.log.add(m.name, p.Now())
	if m.n == 0 {
		if m.peer != nil {
			*m.flag = true
			m.peer.UnparkAt(p.Now())
		}
		return Done
	}
	m.n--
	p.Sleep(m.d)
	return More
}

// parkMachine logs, parks until its flag is set, then logs again and ends.
type parkMachine struct {
	log   *wakeLog
	name  string
	ready *bool
}

func (m *parkMachine) Step(p *Proc) Flow {
	m.log.add(m.name, p.Now())
	if !*m.ready {
		p.Park()
		return More
	}
	return Done
}

// runMixedEngine runs goroutine bodies, goroutine-mode machines and flat
// machines with callbacks between them and returns the wake log.
func runMixedEngine(t *testing.T) wakeLog {
	t.Helper()
	var log wakeLog
	e := NewEngine()
	var bodyReady, flatReady bool
	body := e.Go("body", func(p *Proc) {
		for i := 0; i < 3; i++ {
			log.add("body", p.Now())
			p.Sleep(3 * Nanosecond)
		}
		for !bodyReady {
			p.Park()
		}
		log.add("body-woken", p.Now())
	})
	e.GoMachine("mgo", &logMachine{log: &log, name: "mgo", n: 3, d: 5 * Nanosecond, peer: body, flag: &bodyReady})
	e.SetFlat(true)
	e.GoMachine("mflat", &logMachine{log: &log, name: "mflat", n: 4, d: 2 * Nanosecond})
	fpark := e.GoMachine("fpark", &parkMachine{log: &log, name: "fpark", ready: &flatReady})
	for _, at := range []Time{1, 4, 7, 10} {
		at := at * Nanosecond
		e.At(at, func() { log.add("cb", e.Now()) })
	}
	e.At(6*Nanosecond, func() {
		log.add("cb-unpark", e.Now())
		flatReady = true
		fpark.UnparkAt(e.Now() + Nanosecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestHandoffMixedEngineOrder: control moving between goroutine bodies,
// goroutine-mode machines, flat machines and callbacks follows the (t, seq)
// order exactly, on every run.
func TestHandoffMixedEngineOrder(t *testing.T) {
	want := wakeLog{
		"body@0ps", "mgo@0ps", "mflat@0ps", "fpark@0ps",
		"cb@1.000ns", "mflat@2.000ns", "body@3.000ns", "cb@4.000ns", "mflat@4.000ns",
		"mgo@5.000ns", "cb-unpark@6.000ns", "body@6.000ns", "mflat@6.000ns",
		"cb@7.000ns", "fpark@7.000ns", "mflat@8.000ns", "cb@10.000ns", "mgo@10.000ns",
		"mgo@15.000ns", "body-woken@15.000ns",
	}
	first := runMixedEngine(t)
	second := runMixedEngine(t)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("runs differ:\n%v\n%v", first, second)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("wake order:\n got %q\nwant %q", first, want)
	}
}

// TestHandoffLoneProcSelfResume: a lone goroutine proc sleeping between
// callbacks carries the loop itself; each of its wakes comes up on its own
// goroutine, with the callbacks run inline in time order.
func TestHandoffLoneProcSelfResume(t *testing.T) {
	var log wakeLog
	e := NewEngine()
	e.Go("solo", func(p *Proc) {
		for i := 0; i < 4; i++ {
			log.add("solo", p.Now())
			p.Sleep(10 * Nanosecond)
		}
	})
	for _, at := range []Time{5, 15, 25} {
		e.At(at*Nanosecond, func() { log.add("cb", e.Now()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := wakeLog{"solo@0ps", "cb@5.000ns", "solo@10.000ns", "cb@15.000ns", "solo@20.000ns", "cb@25.000ns", "solo@30.000ns"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("wake order:\n got %q\nwant %q", log, want)
	}
	if st := e.Stats(); st.Resumes != 5 || st.Callbacks != 3 {
		t.Fatalf("resumes=%d callbacks=%d, want 5 and 3", st.Resumes, st.Callbacks)
	}
}

// TestHandoffSwitchAllocationFree: once warm, a proc switch between two
// goroutine procs ping-ponging through Park/UnparkAt allocates nothing.
func TestHandoffSwitchAllocationFree(t *testing.T) {
	e := NewEngine()
	var ping, pong *Proc
	done := false
	allocs := -1.0
	pong = e.Go("pong", func(p *Proc) {
		for {
			p.Park()
			if done {
				return
			}
			ping.UnparkAt(p.Now() + Nanosecond)
		}
	})
	ping = e.Go("ping", func(p *Proc) {
		trip := func() {
			pong.UnparkAt(p.Now() + Nanosecond)
			p.Park()
		}
		for i := 0; i < 100; i++ {
			trip()
		}
		allocs = testing.AllocsPerRun(200, trip)
		done = true
		pong.UnparkAt(p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a round trip of two proc switches allocates %.1f times, want 0", allocs)
	}
}

// TestHandoffStopFromBody: Stop called by a body ends the run at once, with
// other procs still parked and no deadlock reported.
func TestHandoffStopFromBody(t *testing.T) {
	e := NewEngine()
	e.Go("waiter", func(p *Proc) { p.Park() })
	e.Go("stopper", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		p.Engine().Stop()
		p.Sleep(Nanosecond)
		t.Error("stopper resumed after Stop")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Stop = %v, want nil", err)
	}
	if e.Now() != 5*Nanosecond {
		t.Fatalf("stopped at %v, want 5ns", e.Now())
	}
}

// TestHandoffDeadlockReported: when every goroutine proc is parked with
// nothing queued, the last one to block hands control home and Run reports
// the deadlock with each blocked proc.
func TestHandoffDeadlockReported(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) {
		p.Sleep(2 * Nanosecond)
		p.Park()
	})
	e.GoMachine("m", &parkMachine{log: new(wakeLog), name: "m", ready: new(bool)})
	e.Go("b", func(p *Proc) { p.Park() })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := []string{"a(parked,t=2.000ns)", "b(parked,t=0ps)", "m(parked,t=0ps)"}
	if !reflect.DeepEqual(dl.Parked, want) || dl.At != 2*Nanosecond {
		t.Fatalf("deadlock = %v at %v, want %v at 2ns", dl.Parked, dl.At, want)
	}
}

// TestHandoffReleasesFinishedProcs: a finished proc of every kind drops its
// resume channel and machine, and its bytes leave the live account.
func TestHandoffReleasesFinishedProcs(t *testing.T) {
	e := NewEngine()
	ps := []*Proc{e.Go("body", func(p *Proc) { p.Sleep(Nanosecond) })}
	ps = append(ps, e.GoMachine("mgo", &logMachine{log: new(wakeLog), name: "mgo", n: 1, d: Nanosecond}))
	e.SetFlat(true)
	ps = append(ps, e.GoMachine("mflat", &logMachine{log: new(wakeLog), name: "mflat", n: 1, d: Nanosecond}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.state != stateDone || p.resume != nil || p.fm != nil {
			t.Errorf("%s: state %v, resume %v, machine %v after finishing", p.name, p.state, p.resume, p.fm)
		}
	}
	if e.liveProcBytes != 0 || e.arenaLive != 0 {
		t.Errorf("live bytes %d, live arena slots %d after the run, want 0", e.liveProcBytes, e.arenaLive)
	}
}

// cbBoom is a callback panic value: Run must re-raise it unchanged.
type cbBoom struct{ at Time }

// runRecover runs e and returns what Run panicked with (nil if it returned).
func runRecover(t *testing.T, e *Engine) (r any) {
	t.Helper()
	defer func() { r = recover() }()
	if err := e.Run(); err != nil {
		t.Errorf("Run returned %v, want a panic", err)
	}
	return nil
}

// TestCallbackPanicReachesRun: a panicking callback panics Run with its own
// value, whether the loop carrying it runs on Run's goroutine (before the
// first handoff) or on a bystander proc's goroutine (after it), and no proc
// is blamed for it.
func TestCallbackPanicReachesRun(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *Engine)
	}{
		{"before-handoff", func(e *Engine) {
			e.At(0, func() { panic(cbBoom{e.Now()}) })
			e.Go("a", func(p *Proc) { t.Error("a ran after the callback panic") })
		}},
		{"after-handoff", func(e *Engine) {
			e.Go("a", func(p *Proc) {
				p.Sleep(10 * Nanosecond)
				t.Error("a resumed after the callback panic")
			})
			e.At(5*Nanosecond, func() { panic(cbBoom{e.Now()}) })
		}},
		{"quiesce-after-handoff", func(e *Engine) {
			e.Go("a", func(p *Proc) {
				p.Sleep(3 * Nanosecond)
				p.Park()
				t.Error("a resumed after the callback panic")
			})
			e.AtQuiesce(func() { panic(cbBoom{e.Now()}) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			tc.setup(e)
			r := runRecover(t, e)
			if _, ok := r.(cbBoom); !ok {
				t.Fatalf("Run panicked with %v, want the callback's cbBoom", r)
			}
			for _, p := range e.Procs() {
				if p.panicked != nil {
					t.Errorf("proc %s blamed: %v", p.name, p.panicked)
				}
			}
		})
	}
	// A proc's own panic is still its failure, reported as an error.
	e := NewEngine()
	e.Go("a", func(p *Proc) { p.Sleep(Nanosecond) })
	e.Go("boom", func(p *Proc) {
		p.Sleep(2 * Nanosecond)
		panic("body boom")
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), `proc "boom" panicked: body boom`) {
		t.Fatalf("err = %v, want boom's panic", err)
	}
}

// TestGoexitEndsProc: a body that calls runtime.Goexit ends its proc like a
// return, and the run carries on to completion.
func TestGoexitEndsProc(t *testing.T) {
	e := NewEngine()
	finished := false
	quitter := e.Go("quitter", func(p *Proc) {
		p.Sleep(Nanosecond)
		runtime.Goexit()
	})
	e.Go("worker", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		finished = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !finished || quitter.state != stateDone || e.Now() != 5*Nanosecond {
		t.Fatalf("finished=%v quitter=%v now=%v, want true, done, 5ns", finished, quitter.state, e.Now())
	}
}
