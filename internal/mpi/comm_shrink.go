package mpi

import (
	"fmt"
	"sort"

	"cmpi/internal/sim"
)

// ULFM-style communicator shrinking (MPI_Comm_shrink). Shrink is a collective
// over a communicator's *surviving* members: they agree on the set of failed
// ranks — in virtual time the agreement is an out-of-band consensus round,
// costed like a small logarithmic collective — and return a new communicator
// containing only survivors, in parent rank order, under a fresh context id.
// Messaging cannot carry the agreement itself (a dead member never answers),
// which is exactly why real ULFM implements shrink as a separate fault-aware
// consensus; the simulation models its cost, not its packet exchange.

// shrinkSync is one in-progress shrink agreement, keyed by the parent
// communicator's context id in World.shrinks.
type shrinkSync struct {
	members []int    // parent communicator members (world ranks)
	arrived []bool   // per member index: has it called Shrink
	latest  sim.Time // latest arrival or failure observation
	done    bool
	dead    []int    // agreed-failed members (world ranks, ascending)
	newCtx  int      // context id of the shrunken communicator
	release sim.Time // virtual time the agreement completes
}

// Shrink agrees on the failed members of c and returns the survivor
// communicator (meaningful under ErrorsRecover). Every surviving member must
// call it; members that die before or during the agreement are counted among
// the failed, never waited for. The survivor communicator keeps parent rank
// order. Concurrent shrinks of different communicators are fine; shrinking
// the same communicator twice concurrently from one rank is not (as in MPI,
// one collective per communicator at a time).
func (c *Comm) Shrink() *Comm {
	r := c.r
	r.profEnter()
	defer r.profExit("Shrink")
	r.faultCheck()
	w := r.w
	ss := w.shrinks[c.ctx]
	if ss == nil || ss.done {
		ss = &shrinkSync{
			members: append([]int(nil), c.members...),
			arrived: make([]bool, len(c.members)),
		}
		w.shrinks[c.ctx] = ss
	}
	ss.arrived[c.myIdx] = true
	if t := r.p.Now(); t > ss.latest {
		ss.latest = t
	}
	w.checkShrink(ss)
	r.waitUntil(func() bool { return ss.done })
	if ss.release > r.p.Now() {
		r.p.Advance(ss.release - r.p.Now())
	}
	nc := &Comm{r: r, ctx: ss.newCtx}
	for _, m := range ss.members {
		if w.rankDead(m) {
			continue
		}
		if m == r.rank {
			nc.myIdx = len(nc.members)
		}
		nc.members = append(nc.members, m)
	}
	return nc
}

// checkShrink completes an agreement once every surviving member has arrived.
// Called on each arrival and from markCrashed (a member's death can be the
// last missing vote). Runs in engine context.
func (w *World) checkShrink(ss *shrinkSync) {
	if ss.done {
		return
	}
	live := 0
	for i, m := range ss.members {
		if w.rankDead(m) {
			continue
		}
		if !ss.arrived[i] {
			return
		}
		live++
	}
	if live == 0 {
		return
	}
	// Mint the survivor context id, strictly above every id handed out so
	// far — all members see the same job-global counter, so no exchange is
	// needed once the membership is agreed.
	newCtx := w.ctxCounter + 1
	if newCtx >= collCtxBit {
		w.Eng.Fail(fmt.Errorf("communicator context ids exhausted (%d)", newCtx))
		return
	}
	w.ctxCounter = newCtx
	ss.newCtx = newCtx
	for _, m := range ss.members {
		if w.rankDead(m) {
			ss.dead = append(ss.dead, m)
		}
	}
	// Cost model: a fault-aware consensus over the survivors — one
	// out-of-band round per dissemination step plus one to confirm.
	rounds := sim.Time(log2Ceil(live) + 1)
	ss.release = ss.latest + rounds*w.Opts.Params.PMIBarrierLatency
	ss.done = true
	for _, m := range ss.members {
		if !w.rankDead(m) {
			w.ranks[m].p.UnparkAt(ss.release)
		}
	}
}

// checkShrinks re-evaluates every pending agreement after a crash, in sorted
// context order so context ids mint deterministically.
func (w *World) checkShrinks(now sim.Time) {
	if len(w.shrinks) == 0 {
		return
	}
	var ctxs []int
	for ctx, ss := range w.shrinks {
		if !ss.done {
			ctxs = append(ctxs, ctx)
		}
	}
	sort.Ints(ctxs)
	for _, ctx := range ctxs {
		ss := w.shrinks[ctx]
		if now > ss.latest {
			ss.latest = now
		}
		w.checkShrink(ss)
	}
}

// log2Ceil is ceil(log2(n)) for n >= 1.
func log2Ceil(n int) int {
	k, p := 0, 1
	for p < n {
		k++
		p <<= 1
	}
	return k
}
