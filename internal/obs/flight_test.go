package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestFlightRingBounds(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Record(FlightEvent{Kind: "k", Clock: int64(i), Pass: -1, Step: -1, Worker: -1})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	// Oldest-first: clocks 6..9 survive.
	for i, ev := range evs {
		if ev.Clock != int64(6+i) {
			t.Fatalf("evs[%d].Clock = %d, want %d", i, ev.Clock, 6+i)
		}
	}
	if l.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", l.Dropped())
	}
}

func TestFlightRecordStampsTime(t *testing.T) {
	l := NewEventLog(8)
	l.Record(FlightEvent{Kind: "stamped", Worker: -1})
	l.Record(FlightEvent{Kind: "explicit", UnixNs: 42, Worker: -1})
	evs := l.Events()
	if evs[0].UnixNs == 0 {
		t.Fatal("Record left UnixNs zero")
	}
	if evs[1].UnixNs != 42 {
		t.Fatalf("explicit UnixNs overwritten: %d", evs[1].UnixNs)
	}
}

func TestFlightJSONLRoundTrip(t *testing.T) {
	l := NewEventLog(8)
	l.Record(FlightEvent{Kind: "plan.cache.miss", Loop: "dsl-mf-1", Clock: 3, Pass: 0, Step: 2, Worker: -1, Detail: "compiled"})
	l.Record(FlightEvent{Kind: "worker.lost", Loop: "dsl-mf-1", Clock: 5, Pass: 1, Step: 0, Worker: 1})

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []FlightEvent
	for sc.Scan() {
		var ev FlightEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q not JSON: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Kind != "plan.cache.miss" || lines[0].Detail != "compiled" {
		t.Fatalf("line 0 = %+v", lines[0])
	}
	if lines[1].Kind != "worker.lost" || lines[1].Worker != 1 || lines[1].Clock != 5 {
		t.Fatalf("line 1 = %+v", lines[1])
	}
}

func TestFlightFlushFile(t *testing.T) {
	l := NewEventLog(8)
	l.Record(FlightEvent{Kind: "ckpt.write", Clock: 9, Pass: -1, Step: -1, Worker: -1})
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := l.FlushFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ev FlightEvent
	if err := json.Unmarshal(bytes.TrimSpace(data), &ev); err != nil {
		t.Fatalf("flushed file not JSONL: %v", err)
	}
	if ev.Kind != "ckpt.write" || ev.Clock != 9 {
		t.Fatalf("flushed event = %+v", ev)
	}
}

func TestFlightRecordAllocFree(t *testing.T) {
	l := NewEventLog(64)
	allocs := testing.AllocsPerRun(100, func() {
		l.Record(FlightEvent{UnixNs: 1, Kind: "k", Loop: "l", Pass: 0, Step: 0, Worker: -1})
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per call, want 0", allocs)
	}
}

// Dropped reports how many events were overwritten before export.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}
