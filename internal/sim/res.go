package sim

// Res names one schedulable resource for conservative parallel dispatch: a
// simulated process, a fabric port, or any other piece of mutable state that
// events can touch. Resources are small dense non-negative integers assigned
// by the layer above (the MPI runtime maps ranks, hosts and spines onto
// them); the engine only unions them to partition each epoch's events into
// independent groups, in tables indexed by Res and sized by the largest id.
//
// Res 0 is Global, the catch-all resource: events and processes that do not
// declare a footprint are treated as touching everything and serialize with
// each other (and with anything else that names Global). This makes the
// parallel engine a strict generalization of the sequential one — a world
// that never declares footprints runs exactly like the old engine, in one
// group per epoch.
type Res int32

// Global is the catch-all resource (see Res).
const Global Res = 0

// FootprintFn reports the resources a process can touch if resumed now. It
// is called in scheduler context at epoch formation (never concurrently with
// process code), so it may freely read any simulation state; it must not
// schedule events, since formation has already taken the pending queue.
// Appending to the passed slice and returning it avoids per-epoch
// allocations.
//
// Returning an empty slice or including Global serializes the process with
// the global group. A nil FootprintFn is equivalent to returning {Global}.
type FootprintFn func(buf []Res) []Res
