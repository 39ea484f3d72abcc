package obs

import (
	"expvar"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a nil *Counter is a no-op so call sites can hold
// optional counters without branching.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket
// i counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// v == 0, bucket i holds v in [2^(i-1), 2^i).
const histBuckets = 64

// Histogram tracks a distribution of non-negative int64 observations
// in power-of-two buckets. Lock-free and allocation-free on record.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets + 1]atomic.Int64
}

// Observe records one observation (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) from
// the power-of-two buckets: the top edge of the bucket containing the
// q-th observation. Coarse but dependency-free.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.sum.Load()
}

// PeerStats aggregates per-peer transport traffic. All fields are
// updated by the counting connection wrapper in internal/runtime.
type PeerStats struct {
	MsgsSent  Counter
	MsgsRecv  Counter
	BytesSent Counter
	BytesRecv Counter
}

// Registry is a named collection of metrics. Lookups allocate only on
// first use of a name; hot paths should cache the returned pointer.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
	peers      map[string]*PeerStats
}

// Default is the process-wide registry used by the runtime.
var Default = NewRegistry()

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		histograms: map[string]*Histogram{},
		peers:      map[string]*PeerStats{},
	}
}

// GetCounter returns the counter with the given name, creating it on
// first use.
func (r *Registry) GetCounter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GetHistogram returns the histogram with the given name, creating it
// on first use.
func (r *Registry) GetHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// GetPeer returns the traffic stats for a peer label (e.g.
// "exec1/peer0"), creating them on first use.
func (r *Registry) GetPeer(label string) *PeerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[label]
	if !ok {
		p = &PeerStats{}
		r.peers[label] = p
	}
	return p
}

// GetCounter returns a counter from the default registry.
func GetCounter(name string) *Counter { return Default.GetCounter(name) }

// GetHistogram returns a histogram from the default registry.
func GetHistogram(name string) *Histogram { return Default.GetHistogram(name) }

// Peer returns per-peer traffic stats from the default registry.
func Peer(label string) *PeerStats { return Default.GetPeer(label) }

// PeerTraffic is the exportable snapshot of one peer link's counters
// (the JSON form used by ReportDoc and the /report endpoint).
type PeerTraffic struct {
	MsgsSent  int64 `json:"msgs_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
}

// PeerTraffic snapshots every peer link's traffic counters by label.
func (r *Registry) PeerTraffic() map[string]PeerTraffic {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]PeerTraffic, len(r.peers))
	for label, p := range r.peers {
		out[label] = PeerTraffic{
			MsgsSent:  p.MsgsSent.Value(),
			MsgsRecv:  p.MsgsRecv.Value(),
			BytesSent: p.BytesSent.Value(),
			BytesRecv: p.BytesRecv.Value(),
		}
	}
	return out
}

// Snapshot returns every metric's current value keyed by name, with
// peer traffic nested under "peers". Safe for JSON encoding.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]any{}
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, h := range r.histograms {
		out[name] = map[string]any{
			"count": h.Count(),
			"sum":   h.Sum(),
			"mean":  h.Mean(),
			"p50":   h.Quantile(0.50),
			"p99":   h.Quantile(0.99),
		}
	}
	if len(r.peers) > 0 {
		peers := map[string]any{}
		for label, p := range r.peers {
			peers[label] = map[string]int64{
				"msgs_sent":  p.MsgsSent.Value(),
				"msgs_recv":  p.MsgsRecv.Value(),
				"bytes_sent": p.BytesSent.Value(),
				"bytes_recv": p.BytesRecv.Value(),
			}
		}
		out["peers"] = peers
	}
	return out
}

var publishOnce sync.Once

// PublishExpvar exposes the default registry under the expvar name
// "orion" (visible at /debug/vars). Safe to call more than once.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("orion", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}
