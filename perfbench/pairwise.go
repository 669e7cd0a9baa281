package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	"cmpi/internal/mpi"
)

// The pairwise exchange is the one job with causal independence: each phase
// is a random perfect matching, so many epoch groups can run at once. It is
// a layer probe rather than a workload because its wall time at width 2
// depends on both host CPUs being equally fast, which made it the least
// repeatable number of all (see README.md).

// pairGeometry sizes the pairwise exchange.
type pairGeometry struct {
	hosts, ranks, phases, rounds, large int
}

// pairSeed fixes the exchange, so the probe does the same work every run.
const pairSeed = 1

// wideWidth is the wide dispatch width: 2, but never more than the host can
// run at once.
func wideWidth() int {
	return min(2, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// pairSchedule is the seeded plan of the exchange: per phase a random
// perfect matching of the ranks, per round of a phase one message size per
// rank (1 KiB eager or large rendezvous), and read-only payload blocks the
// messages are cut from.
type pairSchedule struct {
	phases, rounds int
	partner        [][]int // [phase][rank]
	size           [][]int // [phase*rounds+round][rank]: bytes rank sends
	blocks         [][]byte
}

// pairBlocks is prime, so neighbouring (step, rank) pairs draw different
// blocks and a message delivered to the wrong rank or step fails the check.
const pairBlocks = 61

func newPairSchedule(seed int64, g pairGeometry) *pairSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := &pairSchedule{phases: g.phases, rounds: g.rounds}
	for ph := 0; ph < s.phases; ph++ {
		perm := rng.Perm(g.ranks)
		partner := make([]int, g.ranks)
		for i := 0; i < len(perm); i += 2 {
			partner[perm[i]], partner[perm[i+1]] = perm[i+1], perm[i]
		}
		s.partner = append(s.partner, partner)
		for rd := 0; rd < s.rounds; rd++ {
			sizes := make([]int, g.ranks)
			for r := range sizes {
				sizes[r] = 1 << 10
				if rng.Intn(2) == 1 {
					sizes[r] = g.large
				}
			}
			s.size = append(s.size, sizes)
		}
	}
	for b := 0; b < pairBlocks; b++ {
		blk := make([]byte, g.large)
		for i := 0; i+8 <= len(blk); i += 8 {
			v := rng.Uint64()
			for k := 0; k < 8; k++ {
				blk[i+k] = byte(v >> (8 * k))
			}
		}
		s.blocks = append(s.blocks, blk)
	}
	return s
}

// payload is the message rank sends at step (phase*rounds+round).
func (s *pairSchedule) payload(step, rank int) []byte {
	return s.blocks[(step*len(s.partner[0])+rank)%pairBlocks][:s.size[step][rank]]
}

// pairwiseJob exchanges the schedule with blocking Sendrecv bodies at the
// given dispatch width, 2 containers a host. Every received payload is
// compared against the seeded content its sender was due to send.
func pairwiseJob(seed int64, g pairGeometry, width int) job {
	s := newPairSchedule(seed, g)
	return job{
		name: "pairwise", hosts: g.hosts, containers: 2, ranks: g.ranks, width: width,
		run: func(w *mpi.World) (func() error, error) {
			done := make([]int, w.Size())
			err := w.Run(func(r *mpi.Rank) error {
				me := r.Rank()
				in := make([]byte, g.large)
				for ph := 0; ph < s.phases; ph++ {
					peer := s.partner[ph][me]
					for rd := 0; rd < s.rounds; rd++ {
						step := ph*s.rounds + rd
						want := s.payload(step, peer)
						st := r.Sendrecv(peer, step, s.payload(step, me), peer, step, in[:len(want)])
						if st.Bytes != len(want) || !bytes.Equal(in[:len(want)], want) {
							return fmt.Errorf("rank %d step %d: payload from rank %d does not match the schedule", me, step, peer)
						}
						done[me]++
					}
				}
				return nil
			})
			return func() error {
				for r, n := range done {
					if n != s.phases*s.rounds {
						return fmt.Errorf("rank %d verified %d of %d exchanges", r, n, s.phases*s.rounds)
					}
				}
				return nil
			}, err
		},
	}
}

// probeWidth runs the pairwise exchange at width 1 and at the wide width,
// alternating, p.widthRounds times each, and returns the speedup: the median
// host time at width 1 over the median at the wide width. Every run must
// verify and simulate exactly what the first width-1 run did.
func probeWidth(p probeSizes) (float64, error) {
	jobs := [2]job{pairwiseJob(pairSeed, p.pairs, 1), pairwiseJob(pairSeed, p.pairs, wideWidth())}
	var secs [2][]float64
	var want string
	for round := 0; round < p.widthRounds; round++ {
		for i := range jobs {
			w := runWorld(&jobs[i], newSpans(), 0, false)
			if w.err != nil {
				return 0, fmt.Errorf("width %d: %w", jobs[i].width, w.err)
			}
			if want == "" {
				want = w.digest()
			} else if got := w.digest(); got != want {
				return 0, fmt.Errorf("width %d simulated\n%s\nwidth 1 simulated\n%s", jobs[i].width, got, want)
			}
			secs[i] = append(secs[i], w.run.Seconds())
		}
	}
	return median(secs[0]) / median(secs[1]), nil
}
