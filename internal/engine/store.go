package engine

import (
	"sort"

	"orion/internal/dsm"
	"orion/internal/optim"
)

// MasterStore holds the authoritative parameter tables. Reads return
// live views and updates apply immediately through each table's
// optimizer — the semantics of serial execution, and of
// dependence-preserving parallel execution (whose schedules guarantee
// concurrent iterations touch disjoint rows).
type MasterStore struct {
	specs  []TableSpec
	tables []*dsm.DistArray
	opts   []optim.Optimizer
}

// NewMasterStore builds the master state for a run: tables from
// app.Init, one cloned optimizer per table.
func NewMasterStore(app App, seed int64) *MasterStore {
	specs := app.Tables()
	tables := app.Init(seed)
	if len(tables) != len(specs) {
		panic("engine: app.Init returned wrong table count")
	}
	opts := make([]optim.Optimizer, len(specs))
	for i, s := range specs {
		if s.Optimizer == nil {
			opts[i] = optim.NewIdentity()
		} else {
			opts[i] = s.Optimizer.Clone()
		}
	}
	return &MasterStore{specs: specs, tables: tables, opts: opts}
}

// Tables exposes the master tables (for loss evaluation).
func (m *MasterStore) Tables() []*dsm.DistArray { return m.tables }

// Read implements Store.
func (m *MasterStore) Read(table int, row int64) []float64 {
	return m.tables[table].Vec(row)
}

// Update implements Store.
func (m *MasterStore) Update(table int, row int64, g []float64) {
	m.opts[table].Apply(table, row, m.tables[table].Vec(row), g, nil)
}

// applyDelayed applies an accumulated gradient with a backlog (data
// parallelism at a barrier).
func (m *MasterStore) applyDelayed(table int, row int64, g, gBck []float64) {
	m.opts[table].Apply(table, row, m.tables[table].Vec(row), g, gBck)
}

// zSum returns the optimizer's summed-gradient state for a row when the
// optimizer tracks it (AdaRev), else nil.
func (m *MasterStore) zSum(table int, row int64, width int) []float64 {
	if bt, ok := m.opts[table].(optim.BacklogTracker); ok {
		return bt.ZSum(table, row, width)
	}
	return nil
}

// tableRow keys a worker-local overlay entry.
type tableRow struct {
	table int
	row   int64
}

// SnapshotStore implements data-parallel (parameter-server) semantics
// for one worker:
//
//   - tables whose rows this worker exclusively owns (fresh[t]) read and
//     write the master directly — e.g. MF's W when samples are
//     partitioned by row;
//   - shared tables read a stale snapshot taken at the last barrier
//     (optionally overridden by rows refreshed mid-pass by managed
//     communication) and accumulate gradients locally until flushed.
type SnapshotStore struct {
	master *MasterStore
	snap   []*dsm.DistArray // shared snapshot, nil entries for fresh tables
	fresh  []bool

	deltas    map[tableRow][]float64
	order     []tableRow
	refreshed map[tableRow][]float64
	// zRead captures the master optimizer's summed gradient at the
	// worker's first update of a row; the backlog at flush time is the
	// difference from the then-current sum.
	zRead map[tableRow][]float64
}

// NewSnapshotStore creates one worker's view. snap entries may be
// shared across workers (they are read-only between barriers).
func NewSnapshotStore(master *MasterStore, snap []*dsm.DistArray, fresh []bool) *SnapshotStore {
	return &SnapshotStore{
		master:    master,
		snap:      snap,
		fresh:     fresh,
		deltas:    make(map[tableRow][]float64),
		refreshed: make(map[tableRow][]float64),
		zRead:     make(map[tableRow][]float64),
	}
}

// Read implements Store.
func (s *SnapshotStore) Read(table int, row int64) []float64 {
	if s.fresh[table] {
		return s.master.Read(table, row)
	}
	k := tableRow{table, row}
	if r, ok := s.refreshed[k]; ok {
		return r
	}
	return s.snap[table].Vec(row)
}

// Update implements Store.
func (s *SnapshotStore) Update(table int, row int64, g []float64) {
	if s.fresh[table] {
		s.master.Update(table, row, g)
		return
	}
	k := tableRow{table, row}
	d, ok := s.deltas[k]
	if !ok {
		d = make([]float64, len(g))
		s.deltas[k] = d
		s.order = append(s.order, k)
		if z := s.master.zSum(table, row, len(g)); z != nil {
			s.zRead[k] = append([]float64(nil), z...)
		}
	}
	for i := range g {
		d[i] += g[i]
	}
}

// Flush applies every buffered gradient to the master through the
// optimizer (with backlog when tracked) and clears the buffer. Returns
// the bytes sent upstream.
func (s *SnapshotStore) Flush() int64 { return s.FlushScaled(1) }

// FlushScaled is Flush with every accumulated gradient multiplied by
// scale before applying — used by the dataflow engine to average
// mini-batch gradients.
func (s *SnapshotStore) FlushScaled(scale float64) int64 {
	var bytes int64
	for _, k := range s.order {
		d, ok := s.deltas[k]
		if !ok {
			continue
		}
		bytes += int64(len(d)) * 8
		if scale != 1 {
			for i := range d {
				d[i] *= scale
			}
		}
		s.master.applyDelayed(k.table, k.row, d, s.backlog(k, len(d)))
	}
	s.deltas = make(map[tableRow][]float64)
	s.order = s.order[:0]
	s.refreshed = make(map[tableRow][]float64)
	s.zRead = make(map[tableRow][]float64)
	return bytes
}

func (s *SnapshotStore) backlog(k tableRow, n int) []float64 {
	zr, ok := s.zRead[k]
	if !ok {
		return nil
	}
	zNow := s.master.zSum(k.table, k.row, n)
	if zNow == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = zNow[i] - zr[i]
	}
	return out
}

// FlushTopK applies the k buffered rows with the largest gradient
// magnitude (L1) to the master, refreshes the worker's view of those
// rows from the master, and returns the bytes moved (up + down) — the
// managed-communication primitive. Deterministic tie-breaking.
func (s *SnapshotStore) FlushTopK(k int) int64 {
	if k <= 0 || len(s.deltas) == 0 {
		return 0
	}
	type scored struct {
		key tableRow
		mag float64
	}
	all := make([]scored, 0, len(s.deltas))
	for key, d := range s.deltas {
		var m float64
		for _, v := range d {
			if v < 0 {
				m -= v
			} else {
				m += v
			}
		}
		all = append(all, scored{key, m})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].mag != all[j].mag {
			return all[i].mag > all[j].mag
		}
		if all[i].key.table != all[j].key.table {
			return all[i].key.table < all[j].key.table
		}
		return all[i].key.row < all[j].key.row
	})
	if k > len(all) {
		k = len(all)
	}
	var bytes int64
	for i := 0; i < k; i++ {
		key := all[i].key
		d := s.deltas[key]
		s.master.applyDelayed(key.table, key.row, d, s.backlog(key, len(d)))
		delete(s.deltas, key)
		delete(s.zRead, key)
		// Refresh: the worker now sees the master's current value.
		s.refreshed[key] = append([]float64(nil), s.master.Read(key.table, key.row)...)
		bytes += int64(len(d)) * 8 * 2 // update up + fresh value down
	}
	norder := s.order[:0]
	for _, key := range s.order {
		if _, ok := s.deltas[key]; ok {
			norder = append(norder, key)
		}
	}
	s.order = norder
	return bytes
}
