package runtime

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"orion/internal/dsm"
	"orion/internal/runtime/bufpool"
	"orion/internal/sched"
)

// heldArray is what an executor holds of one array placed on it as
// partitions (Master.place), each keyed by its range: one of a
// space-local array, and of an array that moves between blocks — one per
// executor around the ring, any number (none included) down the
// wavefront — whatever the schedule has brought here; bound is the one
// the running block sees.
type heldArray struct {
	place sched.Placement // sched.Local, Rotated or Wavefront
	parts []*dsm.Partition
	bound *dsm.Partition
}

// install makes a MsgArrayPart's partitions what this executor holds of
// the array.
func (e *Executor) install(msg *Msg) error {
	h := &heldArray{place: sched.Local, parts: msg.Parts}
	if msg.Rotated {
		h.place = sched.Rotated
	} else if msg.Ordered {
		h.place = sched.Wavefront
	}
	if h.place == sched.Local {
		if len(h.parts) != 1 {
			return fmt.Errorf("runtime: executor %d: %d partitions of space-local %s", e.id, len(h.parts), msg.Array)
		}
		h.bound = h.parts[0]
	}
	e.parts[msg.Array] = h
	return nil
}

// bind makes, of every rotated or wavefront array, the partition whose
// range is the block's time range [lo, hi) the one the block sees, if
// held here.
func (e *Executor) bind(lo, hi int64) {
	for _, h := range e.parts {
		if h.place != sched.Local {
			h.bound = nil
			if i := slices.IndexFunc(h.parts, func(p *dsm.Partition) bool { return p.Lo == lo && p.Hi == hi }); i >= 0 {
				h.bound = h.parts[i]
			}
		}
	}
}

// rotate hands on what the block ran of the time-partitioned arrays and
// takes what the neighbour on the other side ran, before the block
// reports done: a step barrier leaves nothing in flight, which
// checkpoints and Gather rely on. Around the unordered ring (Fig. 7f:
// executor j runs partition (j+t) mod n at step t) rotated partitions go
// to the predecessor; down the ordered wavefront (Fig. 7e: executor j
// runs partition T-j at step T) wavefront partitions go to the
// successor — either way over the peer link shard reads use. An end
// marker follows what was sent, and what arrives is taken up to the
// neighbour's marker — so an array cut for another loop moves only where
// its cuts meet this one's, a whole cycle a pass. The wait also reads
// the master link: its loss ends the wait, a shutdown ends it as a
// shutdown (errShutdown), and any other command is a protocol fault.
func (e *Executor) rotate(ring bool, n int) (sendNs, waitNs int64, err error) {
	place, peer := sched.Rotated, (e.id+n-1)%n
	if !ring {
		place, peer = sched.Wavefront, (e.id+1)%n
	}
	var names []string
	for a, h := range e.parts {
		if h.place == place {
			names = append(names, a)
		}
	}
	if len(names) == 0 {
		return 0, 0, nil
	}
	sort.Strings(names)
	start := time.Now()
	to, err := e.shards.client(peer)
	for _, a := range names {
		if err != nil {
			break
		}
		h := e.parts[a]
		i := slices.Index(h.parts, h.bound)
		if i < 0 {
			continue // the block ran none of this array
		}
		var wire int64
		if wire, err = to.sendRotation(a, h.bound); err != nil {
			break
		}
		e.mRotBytes.Add(wire)
		// The wire has a copy: dense storage goes back to the pool the
		// receiving end decodes into.
		if data, _ := h.bound.Local.DenseData(); data == nil {
			e.mRotRecord.Inc()
		} else {
			e.mRotRaw.Inc()
			bufpool.PutF64(data)
		}
		h.parts, h.bound = slices.Delete(h.parts, i, i+1), nil
	}
	if err == nil {
		err = to.send(&Msg{Kind: MsgRotate})
	}
	if err != nil {
		return 0, 0, fmt.Errorf("runtime: executor %d: rotation send failed (%v): %w", e.id, err, ErrWorkerLost)
	}
	sendNs = int64(time.Since(start))
	e.trace.EndN("rotate.send", "exec", start, "arrays", int64(len(names)))
	start = time.Now()
	for {
		var in *Msg
		select {
		case in = <-e.rotateCh:
		case cmd := <-e.cmdCh:
			switch cmd.Kind {
			case MsgShutdown:
				return 0, 0, errShutdown
			case MsgError:
				return 0, 0, fmt.Errorf("runtime: executor %d: master connection lost mid-rotation (%s): %w", e.id, cmd.Err, ErrWorkerLost)
			}
			return 0, 0, fmt.Errorf("runtime: executor %d: protocol fault: a %v command during a rotation wait: %w", e.id, cmd.Kind, ErrWorkerLost)
		}
		if in.Kind == MsgError {
			return 0, 0, fmt.Errorf("runtime: executor %d: ring neighbour lost mid-rotation (%s): %w", e.id, in.Err, ErrWorkerLost)
		}
		if in.Array == "" {
			break // the neighbour's end marker
		}
		h := e.parts[in.Array]
		if h == nil || h.place != place {
			return 0, 0, fmt.Errorf("runtime: executor %d: a ring neighbour sent a partition of %q, which is not %v here", e.id, in.Array, place)
		}
		h.parts = append(h.parts, in.Parts...)
		if in.part != nil {
			h.parts = append(h.parts, in.part)
		}
	}
	waitNs = int64(time.Since(start))
	e.trace.EndN("rotate.recv", "exec", start, "arrays", int64(len(names)))
	return sendNs, waitNs, nil
}
