package sim

import (
	"errors"
	"testing"
)

// A quiesce callback fires only once the queue drains — after every pending
// event, including ones scheduled later in virtual time than the callback's
// registration point.
func TestAtQuiesceFiresAtDrain(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("worker", func(p *Proc) {
		order = append(order, "start")
		p.Sleep(10 * Microsecond)
		order = append(order, "slept")
	})
	e.AtQuiesce(func() { order = append(order, "quiesce") })
	e.At(5*Microsecond, func() { order = append(order, "callback") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"start", "callback", "slept", "quiesce"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A quiesce callback that wakes a parked process resumes dispatch: the run is
// not a deadlock, and later quiesce callbacks wait for the next drain.
func TestAtQuiesceReleasesParkedProc(t *testing.T) {
	e := NewEngine()
	released := false
	var resumedAt Time
	var p *Proc
	p = e.Go("waiter", func(pp *Proc) {
		for !released {
			pp.Park()
		}
		resumedAt = pp.Now()
	})
	e.Go("other", func(pp *Proc) { pp.Sleep(3 * Microsecond) })
	e.AtQuiesce(func() {
		released = true
		p.UnparkAt(e.Now() + Microsecond)
	})
	fired2 := false
	e.AtQuiesce(func() { fired2 = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !released || !fired2 {
		t.Fatalf("released=%v fired2=%v, want both true", released, fired2)
	}
	if resumedAt != 4*Microsecond {
		t.Fatalf("resumedAt = %v, want 4us (drain time 3us + 1us)", resumedAt)
	}
}

// A quiesce callback that does NOT release parked processes still surfaces the
// deadlock.
func TestAtQuiesceDeadlockStillReported(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) { p.Park() })
	fired := false
	e.AtQuiesce(func() { fired = true })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !fired {
		t.Fatal("quiesce callback did not fire before the deadlock was reported")
	}
}

// A pending background alarm must not hold back quiescence: the callback
// fires at the message-flow drain, with the alarm still queued, and the alarm
// itself still fires at its own time afterwards.
func TestAtQuiesceIgnoresBackgroundAlarms(t *testing.T) {
	e := NewEngine()
	const alarmAt = Millisecond
	var quiesceAt, alarmFiredAt Time = -1, -1
	released := false
	var p *Proc
	p = e.Go("waiter", func(pp *Proc) {
		pp.Sleep(3 * Microsecond)
		for !released {
			pp.Park()
		}
		// Sleep past the alarm so the run does not end before it fires.
		pp.Sleep(2 * alarmAt)
	})
	e.AtBackground(alarmAt, func() { alarmFiredAt = e.Now() })
	e.AtQuiesce(func() {
		quiesceAt = e.Now()
		released = true
		p.UnparkAt(e.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if quiesceAt != 3*Microsecond {
		t.Errorf("quiesce fired at %v, want 3us (before the %v alarm)", quiesceAt, Time(alarmAt))
	}
	if alarmFiredAt != alarmAt {
		t.Errorf("background alarm fired at %v, want %v", alarmFiredAt, Time(alarmAt))
	}
}
