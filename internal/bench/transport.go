package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"orion/internal/dsm"
	"orion/internal/metrics"
	"orion/internal/runtime"
)

// The rotation-transport experiment: the cost of shipping one rotated
// dense partition peer-to-peer under the legacy per-message gob
// partition encoding vs the length-prefixed raw codec over pooled
// buffers, measured through the production peer codec with a counting
// connection (so bytes include all framing). The committed
// BENCH_transport.json baseline gates the raw path's allocation
// advantage in TestTransportBaselineThresholds.

type transportRow struct {
	Path              string  `json:"path"`
	NsPerRotation     float64 `json:"ns_per_rotation"`
	AllocsPerRotation int64   `json:"allocs_per_rotation"`
	BytesPerRotation  int64   `json:"bytes_per_rotation"`
	MBPerSec          float64 `json:"mb_per_sec"`
}

type transportBaseline struct {
	Description string         `json:"description"`
	Rank        int64          `json:"rank"`
	Width       int64          `json:"width"`
	Rows        []transportRow `json:"rows"`
}

// measureTransport round-trips a rank x width dense partition through
// both rotation encodings.
func measureTransport(rank, width int64) (*transportBaseline, error) {
	out := &transportBaseline{
		Description: "rotation transport: one dense partition shipped peer-to-peer and installed — per-message gob partition blobs vs the raw codec (CRC32C trailer + frame sequencing, wide staging); bytes include tag, framing, and trailer overhead",
		Rank:        rank,
		Width:       width,
	}
	a := dsm.NewDense("W", rank, width)
	a.Map(func(float64) float64 { return 0.25 })
	p := a.ExtractRange(1, 0, width)

	variants := []struct {
		name string
		gob  bool
	}{
		{"gob", true},
		{"raw", false},
	}
	for _, v := range variants {
		rb := runtime.NewRotationBench()
		var ack runtime.Msg
		// Warm the codec and pools out of the measured region.
		for i := 0; i < 3; i++ {
			if err := rb.RoundTrip("W", p, v.gob, &ack); err != nil {
				rb.Close()
				return nil, err
			}
		}
		before := rb.BytesSent()
		var ops int64
		ns, allocs := benchNs(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := rb.RoundTrip("W", p, v.gob, &ack); err != nil {
					b.Fatal(err)
				}
			}
			ops += int64(b.N)
		})
		bytesPer := int64(0)
		if ops > 0 {
			bytesPer = (rb.BytesSent() - before) / ops
		}
		rb.Close()
		out.Rows = append(out.Rows, transportRow{
			Path:              v.name,
			NsPerRotation:     round1(ns),
			AllocsPerRotation: allocs,
			BytesPerRotation:  bytesPer,
			MBPerSec:          math.Round(float64(bytesPer)/ns*1e9/1e6*10) / 10,
		})
	}
	return out, nil
}

// TransportRotation is the "transport" experiment (the JSON baseline is
// written by orion-bench -transport-json).
func TransportRotation(_ Scale) (*Report, error) {
	d, err := measureTransport(16, 4096)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, r := range d.Rows {
		rows = append(rows, []string{
			r.Path,
			fmt.Sprintf("%.1f", r.NsPerRotation),
			fmt.Sprintf("%d", r.AllocsPerRotation),
			fmt.Sprintf("%d", r.BytesPerRotation),
			fmt.Sprintf("%.1f", r.MBPerSec),
		})
	}
	body := fmt.Sprintf("rotated dense partition %dx%d, peer codec round trip (ship + install):\n", d.Rank, d.Width) +
		metrics.Table([]string{"path", "ns/rotation", "allocs/rotation", "bytes/rotation", "MB/s"}, rows)
	return &Report{ID: "transport", Title: "zero-copy shard rotation vs gob partition blobs", Body: body}, nil
}

// WriteTransportBaseline measures the rotation transport and writes the
// BENCH_transport.json baseline.
func WriteTransportBaseline(path string) error {
	d, err := measureTransport(16, 4096)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
