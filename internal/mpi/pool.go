package mpi

import "cmpi/internal/core"

// Free lists for the per-message hot-path objects: ring packets, send
// operations, envelopes, requests and the byte buffers behind them. One set
// per Rank: gets and puts happen in the owning rank's process context, and
// the engine runs one process at a time, so no locking is needed.
// Objects may migrate between ranks' pools (a packet allocated by the sender
// retires into the receiver's list); only capacity moves, never live state.
//
// Lifetimes worth knowing before touching this code:
//
//   - shmPacket: born in pushOp/pushControl, consumed exactly once in
//     shmRing.drain, recycled there. A packet rejected by tryPush on a full
//     ring is recycled by the pusher.
//   - sendOp: reference-counted (refs=2). An eager/streamed op's payload
//     snapshot is aliased by ring fragments, so the sender (queue) and the
//     receiver (stream) each hold a reference; whoever drops last frees the
//     op and its data. See releaseOp.
//   - envelope: born at the first inbound packet, recycled in completeRecv.
//     Envelopes of failed requests are deliberately leaked to the GC —
//     error paths are cold and auditing their aliasing buys nothing.
//   - Request: recycled only by the blocking wrappers (Send/Recv/Ssend/
//     Sendrecv and the collectives' sendrecvInternal), which own their
//     handles. User-held handles from Isend/Irecv are never recycled.
//     HCA-rendezvous sends are excluded (noPool): the shared rndv table may
//     reference the request until the receiver's WRITE_IMM completion.

// freeList is a typed free list. get returns a zeroed object; put zeroes
// before listing so stale pointers never pin garbage or leak across reuses.
type freeList[T any] struct {
	free []*T
	ctr  core.PoolCounters
}

func (l *freeList[T]) get() *T {
	l.ctr.Gets++
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.ctr.Hits++
		return x
	}
	return new(T)
}

func (l *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
}

// worldPools is the per-World recycling state.
type worldPools struct {
	buf  core.BufPool // payload snapshots, staging buffers, wire headers
	pkts freeList[shmPacket]
	ops  freeList[sendOp]
	envs freeList[envelope]
	reqs freeList[Request]
}

// counters sums the object-pool hit statistics (the byte pool is reported
// separately — a byte-buffer hit is worth far more than a request hit, so
// mixing them would make the rate meaningless).
func (wp *worldPools) counters() core.PoolCounters {
	var c core.PoolCounters
	for _, l := range []*core.PoolCounters{&wp.pkts.ctr, &wp.ops.ctr, &wp.envs.ctr, &wp.reqs.ctr} {
		c.Gets += l.Gets
		c.Hits += l.Hits
	}
	return c
}

// getReq returns a zeroed Request from the pool.
func (r *Rank) getReq() *Request { return r.pools.reqs.get() }

// putReq recycles a request the caller owns. Requests flagged noPool (HCA
// rendezvous sends) and failed requests (their envelopes/ops may still be
// referenced from error-path state) are left to the GC.
func (r *Rank) putReq(req *Request) {
	if req == nil || req.noPool || req.err != nil {
		return
	}
	r.pools.reqs.put(req)
}

// getOp returns a send op holding both the sender and receiver references.
func (r *Rank) getOp() *sendOp {
	op := r.pools.ops.get()
	op.refs = 2
	return op
}

// releaseOp drops one reference; the last one frees the payload snapshot and
// the op itself. The sender's reference is dropped when the op leaves the
// send queue done (or on FIN for CMA rendezvous); the receiver's when the
// inbound stream completes (or after the CMA read).
func (r *Rank) releaseOp(op *sendOp) {
	op.refs--
	if op.refs > 0 {
		return
	}
	if op.refs < 0 {
		r.p.Fatalf("sendOp released twice (dst=%d tag=%d seq=%d)", op.dst, op.tag, op.seq)
	}
	r.pools.buf.Put(op.data)
	r.pools.ops.put(op)
}
