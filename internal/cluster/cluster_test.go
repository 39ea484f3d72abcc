package cluster

import (
	"math"
	"testing"
)

func TestTopology(t *testing.T) {
	c := Config{Machines: 3, WorkersPerMachine: 4}
	if c.MachineOf(0) != 0 || c.MachineOf(4) != 1 || c.MachineOf(11) != 2 {
		t.Fatal("MachineOf broken")
	}
	if !c.SameMachine(4, 7) || c.SameMachine(3, 4) {
		t.Fatal("SameMachine broken")
	}
}

func TestComputeTime(t *testing.T) {
	c := Config{FlopsPerSec: 1e9, ComputeOverhead: 2}
	if got := c.ComputeTime(1e9); math.Abs(got-2) > 1e-12 {
		t.Fatalf("ComputeTime = %v, want 2", got)
	}
	c.ComputeOverhead = 0 // defaults to 1
	if got := c.ComputeTime(5e8); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ComputeTime = %v, want 0.5", got)
	}
}

func TestTransferTime(t *testing.T) {
	c := Config{BandwidthBps: 8e9, LatencySec: 1e-3, LocalBytesPerSec: 1e10}
	// 1e9 bytes over 8e9 bps = 1 second + 1ms latency.
	if got := c.TransferTime(1e9, false); math.Abs(got-1.001) > 1e-9 {
		t.Fatalf("remote TransferTime = %v", got)
	}
	if got := c.TransferTime(1e9, true); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("local TransferTime = %v", got)
	}
	if got := c.TransferTime(0, false); got != 0 {
		t.Fatalf("zero-byte transfer should be free, got %v", got)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(1.5)
	c.Advance(0.25)
	if c.Now() != 1.75 {
		t.Fatalf("Now = %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance must panic")
		}
	}()
	c.Advance(-1)
}

func TestBandwidthTraceWindows(t *testing.T) {
	tr := NewBandwidthTrace(1.0)
	tr.Record(0.5, 0, 1e6)  // instant in window 0
	tr.Record(2.25, 0, 2e6) // window 2
	s := tr.Series()
	if len(s) != 3 {
		t.Fatalf("series length = %d, want 3", len(s))
	}
	if s[0].Mbps != 8 { // 1e6 bytes * 8 bits / 1s / 1e6
		t.Fatalf("window 0 = %v Mbps, want 8", s[0].Mbps)
	}
	if s[1].Mbps != 0 || s[2].Mbps != 16 {
		t.Fatalf("series = %v", s)
	}
	if tr.TotalBytes() != 3e6 {
		t.Fatalf("TotalBytes = %d", tr.TotalBytes())
	}
}

func TestBandwidthTraceSpread(t *testing.T) {
	tr := NewBandwidthTrace(1.0)
	// 4e6 bytes spread evenly over [0.5, 2.5): 25% / 50% / 25%.
	tr.Record(0.5, 2.0, 4e6)
	s := tr.Series()
	if len(s) != 3 {
		t.Fatalf("series length = %d", len(s))
	}
	if math.Abs(s[0].Mbps-8) > 0.1 || math.Abs(s[1].Mbps-16) > 0.1 || math.Abs(s[2].Mbps-8) > 0.1 {
		t.Fatalf("spread series = %v", s)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	c := Default()
	if w := c.Machines * c.WorkersPerMachine; w != 384 {
		t.Fatalf("default workers = %d, want 384 (12 machines x 32)", w)
	}
	if c.ComputeTime(1) <= 0 || c.TransferTime(100, false) <= 0 {
		t.Fatal("default cost model degenerate")
	}
}
