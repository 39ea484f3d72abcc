package runtime

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"orion/internal/dsm"
)

// Parameter-server sharding (Section 4.4: served DistArrays are "served
// by a number of server processes"). A served array is range-sharded
// along its last dimension across all executors; every executor both
// consumes (prefetching from owners) and serves (answering peer RPCs
// from its reader goroutines) shards. Same-executor accesses short-
// circuit locally — the common case after locality-aware planning.

// stagedUpdate is an update batch an owner has received but not yet
// folded into its shard: it becomes visible only to reads from later
// epochs, making served reads step-consistent (and so deterministic)
// no matter how block execution interleaves across executors.
type stagedUpdate struct {
	src      int
	epoch    int64
	offs     []int64
	vals     []float64
	absolute bool
}

// updKey identifies one sender's update batch for duplicate-delivery
// suppression. An executor flushes at most one batch per (array, epoch,
// absolute-flag) per block, and runs one block per step, so a second
// arrival with the same key within the staging window is a replayed
// delivery — dropped, never double-applied. The codec's sequence
// numbers already condemn duplicated frames at the transport; this is
// the idempotence backstop at the state layer.
type updKey struct {
	src      int
	epoch    int64
	absolute bool
}

func (u stagedUpdate) key() updKey {
	return updKey{src: u.src, epoch: u.epoch, absolute: u.absolute}
}

// shardTable tracks one served array's sharding on an executor.
type shardTable struct {
	// boundaries along the last dim (len = n-1): owner k holds
	// lastCoord in [boundaries[k-1], boundaries[k]).
	boundaries []int64
	// local is this executor's shard, an empty range if it owns nothing.
	local *dsm.Partition
	// lastStride = product of all dims except the last: flattened
	// offset / lastStride = last-dim coordinate.
	lastStride int64
	// base = Lo × lastStride: a shard is a range of the last dimension,
	// so offset - base addresses its storage, dense or sparse.
	base int64
	// pending holds staged updates, folded in on the first read from a
	// later epoch. seen tracks the keys of batches currently staged
	// (pruned as they fold), so a duplicated delivery cannot
	// double-apply. spare keeps folded batches' storage for the next
	// ones to be staged.
	pending []stagedUpdate
	seen    map[updKey]struct{}
	spare   []stagedUpdate
}

// fold applies every pending update from an epoch before the reader's
// into the local shard, ordered by (epoch, sending executor) and not by
// arrival, so that concurrent senders' additive deltas sum in the same
// order on every run. One sender's batches keep their arrival order
// (absolute, then additive). epoch 0 folds everything (a gather).
func (t *shardTable) fold(epoch int64) {
	slices.SortStableFunc(t.pending, func(a, b stagedUpdate) int {
		return cmp.Or(cmp.Compare(a.epoch, b.epoch), cmp.Compare(a.src, b.src))
	})
	kept := t.pending[:0]
	for _, u := range t.pending {
		if epoch > 0 && u.epoch >= epoch {
			kept = append(kept, u)
			continue
		}
		for i, off := range u.offs {
			if u.absolute {
				t.set(off, u.vals[i])
			} else {
				t.add(off, u.vals[i])
			}
		}
		delete(t.seen, u.key())
		t.spare = append(t.spare, stagedUpdate{offs: u.offs[:0], vals: u.vals[:0]})
	}
	t.pending = kept
}

// stage copies one update batch into recycled storage, unless an
// identical delivery is already staged (duplicate suppression — see
// updKey).
func (t *shardTable) stage(src int, epoch int64, absolute bool, offs []int64, vals []float64) {
	u := stagedUpdate{src: src, epoch: epoch, absolute: absolute}
	k := u.key()
	if _, dup := t.seen[k]; dup {
		return
	}
	if t.seen == nil {
		t.seen = map[updKey]struct{}{}
	}
	t.seen[k] = struct{}{}
	if n := len(t.spare); n > 0 {
		u.offs, u.vals = t.spare[n-1].offs, t.spare[n-1].vals
		t.spare = t.spare[:n-1]
	}
	u.offs, u.vals = append(u.offs, offs...), append(u.vals, vals...)
	t.pending = append(t.pending, u)
}

// newShardTable serves local, a range of its array's last dimension,
// whose record carries the extents of every other dimension.
func newShardTable(boundaries []int64, local *dsm.Partition) *shardTable {
	dims := local.Local.Dims()
	stride := int64(1)
	for _, d := range dims[:len(dims)-1] {
		stride *= d
	}
	return &shardTable{boundaries: boundaries, local: local, lastStride: stride, base: local.Lo * stride}
}

// ownerOf returns the executor owning a flattened offset.
func (t *shardTable) ownerOf(off int64) int {
	last := off / t.lastStride
	return sort.Search(len(t.boundaries), func(k int) bool { return t.boundaries[k] > last })
}

// ownedRun returns the owner of the first of some ascending offsets and
// how many of them, from the first, it owns.
func (t *shardTable) ownedRun(offs []int64) (owner, n int) {
	owner = t.ownerOf(offs[0])
	if owner == len(t.boundaries) {
		return owner, len(offs)
	}
	n, _ = slices.BinarySearch(offs, t.boundaries[owner]*t.lastStride)
	return owner, n
}

// checkLocal rejects a request naming an offset outside the local
// shard. A shard is a range of the last dimension, so what it holds is
// one run of flattened offsets, itself inside [0, product of dims):
// whatever a peer sends is refused here, before it can reach the shard's
// own bounds check, which panics.
func (t *shardTable) checkLocal(offs []int64) error {
	lo, hi := t.base, t.local.Hi*t.lastStride
	for _, off := range offs {
		if off < lo || off >= hi {
			return fmt.Errorf("offset %d is outside the local shard [%d,%d)", off, lo, hi)
		}
	}
	return nil
}

// at reads a flattened offset from the local shard.
func (t *shardTable) at(off int64) float64 { return t.local.Local.AtFlat(off - t.base) }

// add accumulates into a flattened offset of the local shard.
func (t *shardTable) add(off int64, delta float64) {
	off -= t.base
	t.local.Local.SetFlat(off, t.local.Local.AtFlat(off)+delta)
}

// set overwrites a flattened offset of the local shard.
func (t *shardTable) set(off int64, v float64) { t.local.Local.SetFlat(off-t.base, v) }

// shardSet is the executor-side state for all sharded arrays.
type shardSet struct {
	mu     sync.Mutex
	tables map[string]*shardTable
	peers  []string
	t      Transport
	// clients are lazily dialed RPC connections to peer executors,
	// used synchronously from the executor's main goroutine.
	clients map[int]*codec
	selfID  int
	// limit is the owning executor's frame element cap.
	limit *elemCap
}

func newShardSet(t Transport, selfID int) *shardSet {
	return &shardSet{
		tables:  map[string]*shardTable{},
		clients: map[int]*codec{},
		t:       t,
		selfID:  selfID,
	}
}

func (s *shardSet) install(boundaries []int64, local *dsm.Partition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[local.Array] = newShardTable(boundaries, local)
}

func (s *shardSet) table(array string) *shardTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[array]
}

// serveRead answers a peer's (or the local executor's) read of offsets
// this executor owns, as of the reader's epoch: staged updates from
// earlier epochs are folded in first, same-epoch ones stay invisible.
// The values are appended to out, which the caller reuses.
func (s *shardSet) serveRead(out []float64, array string, offs []int64, epoch int64) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[array]
	if t == nil {
		return out, fmt.Errorf("runtime: executor %d serves no shard of %q", s.selfID, array)
	}
	if err := checkEpoch(epoch); err != nil {
		return out, fmt.Errorf("runtime: executor %d: read of %q: %v", s.selfID, array, err)
	}
	if err := t.checkLocal(offs); err != nil {
		return out, fmt.Errorf("runtime: executor %d: read of %q: %v", s.selfID, array, err)
	}
	t.fold(epoch)
	for _, off := range offs {
		out = append(out, t.at(off))
	}
	return out, nil
}

// serveUpdate stages a peer's update batch against the local shard:
// additive deltas, or absolute final values (used for serializable
// direct writes under ordered wavefront execution, where the schedule
// guarantees a single writer). The batch folds in when a later-epoch
// read (or a gather) arrives; offsets and values are copied because
// the serving loop reuses the decoded message's storage. src is the
// sending executor's id: together with the epoch it keys
// duplicate-delivery suppression, so a replayed batch stages once.
// readServed lets no update through with fewer values than offsets.
func (s *shardSet) serveUpdate(array string, src int, offs []int64, vals []float64, absolute bool, epoch int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[array]
	if t == nil {
		return fmt.Errorf("runtime: executor %d serves no shard of %q", s.selfID, array)
	}
	if err := checkEpoch(epoch); err != nil {
		return fmt.Errorf("runtime: executor %d: update of %q: %v", s.selfID, array, err)
	}
	if err := t.checkLocal(offs); err != nil {
		return fmt.Errorf("runtime: executor %d: update of %q: %v", s.selfID, array, err)
	}
	t.stage(src, epoch, absolute, offs, vals)
	return nil
}

// checkEpoch refuses a served read or update stamped below 1: every
// step's epoch is the clock it completes at, clock+1, so a lower one
// was stamped by no step — and would see, or stage, what no step may.
func checkEpoch(epoch int64) error {
	if epoch < 1 {
		return fmt.Errorf("epoch %d is not a step's (every step's is at least 1)", epoch)
	}
	return nil
}

// gatherLocal folds everything pending and returns the local shard for
// a gather (nil if this executor serves no shard of the array).
func (s *shardSet) gatherLocal(array string) *dsm.Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[array]
	if t == nil {
		return nil
	}
	t.fold(0)
	return t.local
}

// client returns (dialing if needed) the RPC connection to peer id.
func (s *shardSet) client(id int) (*codec, error) {
	s.mu.Lock()
	c := s.clients[id]
	peers := s.peers
	s.mu.Unlock()
	if c != nil {
		return c, nil
	}
	if id < 0 || id >= len(peers) {
		return nil, fmt.Errorf("runtime: no peer %d", id)
	}
	conn, err := s.t.Dial(peers[id])
	if err != nil {
		return nil, fmt.Errorf("runtime: dialing shard owner %d: %w", id, err)
	}
	c = newPeerCodec(conn, fmt.Sprintf("exec%d/peer%d", s.selfID, id), s.limit)
	s.mu.Lock()
	if existing := s.clients[id]; existing != nil {
		s.mu.Unlock()
		c.close()
		return existing, nil
	}
	s.clients[id] = c
	s.mu.Unlock()
	return c, nil
}

func (s *shardSet) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clients {
		c.close()
	}
	s.clients = map[int]*codec{}
}
