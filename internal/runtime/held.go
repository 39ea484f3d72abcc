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
	parts []heldPart
	bound *dsm.Partition
}

// heldPart is one held partition; pooled marks dense storage a raw
// rotation frame brought from bufpool, returned once it is sent on.
type heldPart struct {
	*dsm.Partition
	pooled bool
}

// install makes a MsgArrayPart's partitions what this executor holds of
// the array.
func (e *Executor) install(msg *Msg) error {
	ps, err := dsm.DecodePartitions(msg.PartBlob)
	if err != nil {
		return err
	}
	h := &heldArray{place: sched.Local}
	if msg.Rotated {
		h.place = sched.Rotated
	} else if msg.Ordered {
		h.place = sched.Wavefront
	}
	for _, p := range ps {
		h.parts = append(h.parts, heldPart{Partition: p})
	}
	if h.place == sched.Local {
		if len(ps) != 1 {
			return fmt.Errorf("runtime: executor %d: %d partitions of space-local %s", e.id, len(ps), msg.Array)
		}
		h.bound = ps[0]
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
			if i := slices.IndexFunc(h.parts, func(p heldPart) bool { return p.Lo == lo && p.Hi == hi }); i >= 0 {
				h.bound = h.parts[i].Partition
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
// runs partition T-j at step T) wavefront partitions go to the successor,
// over the peer link shard reads use. An end marker follows what was
// sent, and what arrives is taken up to the neighbour's marker — so an
// array cut for another loop moves only where its cuts meet this one's,
// a whole cycle a pass.
func (e *Executor) rotate(ring bool, n int) (sendNs, waitNs int64, err error) {
	place, to := sched.Rotated, e.sendTo
	if !ring {
		place = sched.Wavefront
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
	if !ring {
		to, err = e.shards.client((e.id + 1) % n)
	}
	for _, a := range names {
		if err != nil {
			break
		}
		h := e.parts[a]
		i := slices.IndexFunc(h.parts, func(p heldPart) bool { return p.Partition == h.bound })
		if i < 0 {
			continue // the block ran none of this array
		}
		p := h.parts[i]
		var wire int64
		if wire, err = to.sendRotation(a, p.Partition); err != nil {
			break
		}
		e.mRotBytes.Add(wire)
		data, _ := p.Local.DenseData()
		if data == nil {
			e.mRotGob.Inc()
		} else {
			e.mRotRaw.Inc()
		}
		if p.pooled {
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
		case <-e.rotateErr:
			return 0, 0, fmt.Errorf("runtime: executor %d: ring neighbour lost mid-rotation: %w", e.id, ErrWorkerLost)
		case <-e.stop:
			return 0, 0, e.lostErr()
		}
		if in.Array == "" {
			break // the neighbour's end marker
		}
		p, err := partitionFromMsg(in)
		if err != nil {
			return 0, 0, err
		}
		h := e.parts[in.Array]
		if h == nil || h.place != place {
			return 0, 0, fmt.Errorf("runtime: executor %d: a ring neighbour sent a partition of %q, which is not %v here", e.id, in.Array, place)
		}
		h.parts = append(h.parts, heldPart{p, in.Raw})
	}
	waitNs = int64(time.Since(start))
	e.trace.EndN("rotate.recv", "exec", start, "arrays", int64(len(names)))
	return sendNs, waitNs, nil
}
