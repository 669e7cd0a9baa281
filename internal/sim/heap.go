package sim

// event is one entry in the engine's pending-event queue. Exactly one of
// fn / fnA / proc is used: fn and fnA events run a callback in scheduler
// context (fnA with a caller-supplied argument, so hot paths can recycle a
// static function plus a pooled argument struct instead of allocating a
// closure per event), proc events hand control to a simulated process.
type event struct {
	t     Time
	seq   uint64 // FIFO tie-break among equal-time events: keeps runs deterministic
	fn    func()
	fnA   func(any)
	arg   any
	proc  *Proc
	timer bool // true for Sleep/Advance/start wakes, false for Unpark wakes
	// background marks a pre-scheduled alarm (AtBackground) that does not
	// count against quiescence: a fault injector's crash wake parked far in
	// the future is not an in-flight message, so it must not hold back an
	// AtQuiesce callback.
	background bool
}

// isCallback reports whether the event runs in scheduler context.
func (e *event) isCallback() bool { return e.fn != nil || e.fnA != nil }

// invoke runs a callback event.
func (e *event) invoke() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.fnA(e.arg)
}

// heapArity is the fan-out of the event heap. A 4-ary heap halves the tree
// depth of a binary heap, trading slightly wider sift-down comparisons
// (cache-friendly: four siblings share a cache line or two) for many fewer
// levels on push — the dominant operation, since most pushes land near the
// bottom. Pop order is identical for any arity because (t, seq) is a total
// order.
const heapArity = 4

// eventHeap is a hand-rolled d-ary min-heap ordered by (t, seq). A concrete
// heap avoids the interface boxing of container/heap on the engine hot path.
type eventHeap struct {
	ev []event
	// maxDepth is the high-water mark of pending events, for capacity
	// planning (Stats.MaxHeapDepth).
	maxDepth int
	// bg counts pending background events, so the dispatch loop can tell
	// "only far-future alarms remain" (len() == bg) from real pending work.
	bg int
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	if e.background {
		h.bg++
	}
	h.ev = append(h.ev, e)
	if len(h.ev) > h.maxDepth {
		h.maxDepth = len(h.ev)
	}
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	if top.background {
		h.bg--
	}
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev[last] = event{} // release references held by the vacated slot
	h.ev = h.ev[:last]
	n := len(h.ev)
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		end := first + heapArity
		if end > n {
			end = n
		}
		smallest := i
		for c := first; c < end; c++ {
			if h.less(c, smallest) {
				smallest = c
			}
		}
		if smallest == i {
			break
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
	return top
}

// minTime reports the earliest pending event time; ok is false when empty.
func (h *eventHeap) minTime() (Time, bool) {
	if len(h.ev) == 0 {
		return 0, false
	}
	return h.ev[0].t, true
}
