// Array residency (§4, DESIGN.md "Array residency"): a DistArray stays
// partitioned on the executors while they hold what the next loop needs
// and comes back only when the driver program reads it. An array is in
// state driver (no record, or its stamp broke), both, or fleet (dirty).
package driver

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"orion/internal/diag"
	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/plan"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// resident is the session's record of one array the executors hold:
// the iteration space (Session.iter — they keep one) or a model array
// (Session.held, created at its first ship).
type resident struct {
	// stamp is what the session's copy held when it last agreed with the
	// fleet's (a ship, a fetch); dirty, that a loop has written it since.
	stamp dsm.Stamp
	dirty bool
	// stale says why the executors do not hold the array. It is "" from
	// the session's own ship of it placed as key says (Array "", PartDim
	// the space dimension: the iteration space) and cut at cuts (nil:
	// served, the shards follow from the fleet size), which stands while
	// the master's epoch for the array still reads epoch. generation only
	// tells a re-formed fleet from somebody else's ship, for the flight log.
	stale             string
	key               sched.ArrayPlan
	cuts              []int64
	epoch, generation int64

	// Of the iteration space only, standing while stamp holds: the raw
	// per-coordinate iteration counts of the loop's space/time dimensions
	// (the weights the static pipeline cut from, and the base the adaptive
	// trigger re-weights) and their plan.WeightsDigest.
	timeDim       int
	spaceW, timeW []int64
	digest        string
}

// iterSpaceOf returns the record of the loop's iteration space,
// re-counting (dsm.DistArray.CoordCounts: nothing is flattened until it
// ships) when the array changed or the record is of another space.
func (s *Session) iterSpaceOf(e *compiledLoop) *resident {
	arr := s.Array(e.spec.IterSpaceArray)
	timeDim := -1
	if e.plan.Kind == sched.TwoD {
		timeDim = e.plan.TimeDim
	}
	old := s.iter
	unchanged := old != nil && old.stamp.Holds(arr)
	if unchanged && old.key.PartDim == e.plan.SpaceDim && old.timeDim == timeDim {
		return old
	}
	r := &resident{stamp: arr.Stamp(), key: sched.ArrayPlan{PartDim: e.plan.SpaceDim}, timeDim: timeDim, stale: "first"}
	if timeDim >= 0 {
		counts := arr.CoordCounts(r.key.PartDim, timeDim)
		r.spaceW, r.timeW = counts[0], counts[1]
	} else {
		r.spaceW = arr.CoordCounts(r.key.PartDim)[0]
	}
	r.digest = plan.WeightsDigest(r.spaceW, r.timeW)
	switch {
	case old == nil:
	case old.stale != "":
		r.stale = old.stale
	case unchanged:
		r.stale = "recut" // the same samples, cut along other dimensions
	default:
		r.stale = "mutated"
	}
	s.iter = r
	return r
}

// hold makes the executors hold r's array placed as key says and cut at
// cuts, which they already do when this session shipped exactly that
// and nobody has shipped it or re-formed the fleet since. Otherwise ship
// runs, after a fetch when only the fleet's copy was current.
func (s *Session) hold(e *compiledLoop, r *resident, key sched.ArrayPlan, cuts []int64, ship func() error) error {
	what, rekeyed := "array", "rekeyed"
	shipped, reused := obs.FlightArrayShip, obs.FlightArrayReuse
	if key.Array == "" {
		what, rekeyed = "iterspace", "recut"
		shipped, reused = obs.FlightIterShip, obs.FlightIterReuse
	}
	epoch, reason := s.master.ArrayEpoch(key.Array), r.stale
	switch {
	case reason != "":
	case r.epoch != epoch && r.generation != s.generation.Load():
		reason = "fleet"
	case r.epoch != epoch:
		reason = "foreign-ship"
	case r.key != key || !slices.Equal(r.cuts, cuts):
		reason = rekeyed
	}
	verb, kind := "reuse", reused
	if reason != "" {
		verb, kind = "ship", shipped
		if err := s.fetch(reason, key.Array); err != nil {
			return err
		}
		if err := ship(); err != nil {
			return err
		}
		r.stale, r.key, r.cuts = "", key, cuts
		r.epoch, r.generation = s.master.ArrayEpoch(key.Array), s.generation.Load()
	}
	obs.GetCounter("driver." + what + "_" + verb).Inc()
	s.event(kind, e.spec.Name, strings.TrimSpace(key.Array+" "+reason))
	return nil
}

// placeArrays makes the executors hold every referenced array as the
// plan places it and returns their names. Rotated and wavefront arrays
// are placed as they stand at the start of step (zero for a fresh pass;
// the resume step when recovering mid-pass — a completed attempt always
// leaves them where a pass starts).
func (s *Session) placeArrays(e *compiledLoop, spacePart, timePart *sched.Partitioner, step int) ([]string, error) {
	var names []string
	for _, ap := range e.plan.Arrays {
		name := ap.Array
		if name == e.spec.IterSpaceArray {
			continue
		}
		r := s.held[name]
		if r == nil {
			r = &resident{stale: "first"}
			s.held[name] = r
		} else if r.stale == "" && !r.dirty && !r.stamp.Holds(s.arrays[name]) {
			r.stale = "mutated"
		}
		var cuts []int64
		ship := s.master.DistributeServed // sharded for peer-to-peer serving
		switch ap.Place {
		case sched.Local:
			cuts = spacePart.Boundaries()
			ship = func(a *dsm.DistArray) error { return s.master.DistributeLocal(a, ap.PartDim, cuts) }
		case sched.Rotated:
			cuts = timePart.Boundaries()
			ship = func(a *dsm.DistArray) error { return s.master.DistributeRotatedAt(a, ap.PartDim, cuts, step) }
		case sched.Wavefront:
			cuts = timePart.Boundaries()
			ship = func(a *dsm.DistArray) error { return s.master.DistributeWavefrontAt(a, ap.PartDim, cuts, step) }
		}
		err := s.hold(e, r, ap, cuts, func() error {
			r.stamp = s.arrays[name].Stamp()
			return ship(s.arrays[name])
		})
		if err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// wrote records that a loop which can write them — a write reference or
// a buffer flush — has completed over the arrays the fleet holds.
func (s *Session) wrote(e *compiledLoop) error {
	for _, ref := range e.spec.Refs {
		if r := s.held[ref.Array]; r != nil && ref.IsWrite {
			r.dirty = true
		}
	}
	if s.checkpointDir == "" {
		return nil
	}
	return s.fetch("checkpoint-armed")
}

// fetch makes the session's copies of the named arrays — of every
// array, when none is named — current by gathering those a loop has
// written since the last fetch; they stay resident. reason is for the log.
func (s *Session) fetch(reason string, names ...string) error {
	if len(names) == 0 {
		for name := range s.held {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		r := s.held[name]
		if r == nil || !r.dirty {
			continue
		}
		if r.epoch != s.master.ArrayEpoch(name) {
			return s.lost(fmt.Errorf("the fleet that held %q was re-formed or shipped over", name))
		}
		a, err := s.master.Gather(name)
		if err != nil {
			return s.lost(err)
		}
		s.arrays[name], r.stamp, r.dirty = a, a.Stamp(), false
		obs.GetCounter("driver.array_fetch").Inc()
		s.event(obs.FlightArrayFetch, "", name+" "+reason)
	}
	return nil
}

// lost forgets what the fleet held once a fetch or an attempt at a loop
// failed with cause: an executor that fails exits, and the others stopped
// mid-pass. The session's copies stay as they are — an interrupted pass
// was not applied — and the ORN301 error returned names those a loop
// had written since their last fetch: the updates are gone.
func (s *Session) lost(cause error) error {
	var names []string
	for name, r := range s.held {
		if r.dirty {
			names = append(names, name)
		}
	}
	clear(s.held)
	if len(names) == 0 {
		return cause
	}
	sort.Strings(names)
	err := fmt.Errorf("driver: only the fleet held the updates to %s since their last fetch, and they are lost (%v): %w",
		strings.Join(names, ", "), cause, runtime.ErrWorkerLost)
	s.lastDiags.Add(diag.Errorf(diag.CodeWorkerLost, diag.Pos{},
		"read arrays back (Session.Array) or set a checkpoint directory while the fleet is healthy", "%v", err))
	return err
}

// Array returns the session's copy of an array, fetched first when a
// loop has written it since — or nil, with the ORN301 diagnostic
// recorded, when the fleet that held it is gone: never a stale copy. A
// write to it re-ships it; a pointer kept across a writing loop is stale.
func (s *Session) Array(name string) *dsm.DistArray {
	if s.fetch("read", name) != nil {
		return nil
	}
	return s.arrays[name]
}

// invalidate records that the session's copy of name was replaced: it
// is the only current one, whatever the fleet holds.
func (s *Session) invalidate(name string) { delete(s.held, name) }
