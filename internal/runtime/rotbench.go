package runtime

import (
	"net"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/runtime/bufpool"
)

// RotationBench exposes the peer codec's rotation paths to the
// benchmark harness (benchmark/standalone.go times
// runtime.rotation_mb_per_s through it) without exporting the codec
// itself: a client/server codec pair over an in-memory pipe, the client
// end wrapped in the same countingConn production ring links use (so
// BytesSent is the true wire size, framing included), and a sink
// goroutine performing the receive-side work servePeer plus the
// executor's install step do per rotated partition.
type RotationBench struct {
	cc, sc *codec
	stats  *obs.PeerStats
	done   chan struct{}
}

// NewRotationBench builds the codec pair and starts the sink.
func NewRotationBench() *RotationBench {
	client, server := net.Pipe()
	stats := obs.NewRegistry().GetPeer("rotbench")
	rb := &RotationBench{
		cc:    newCodec(&countingConn{Conn: client, stats: stats}),
		sc:    newCodec(server),
		stats: stats,
		done:  make(chan struct{}),
	}
	go rb.sink()
	return rb
}

// sink receives rotations, materializes the partition exactly as the
// executor's rotation-install step does, recycles pooled raw payloads
// (the steady-state fold), and acks each frame.
func (rb *RotationBench) sink() {
	defer close(rb.done)
	var in, ack Msg
	for {
		if err := rb.sc.recvInto(&in); err != nil {
			return
		}
		if in.Kind == MsgShutdown {
			return
		}
		p, err := partitionFromMsg(&in)
		if err != nil {
			return
		}
		if in.Raw {
			data, _ := p.Local.DenseData()
			bufpool.PutF64(data)
			in.Values = nil
		}
		ack.reset()
		ack.Kind = MsgAck
		if err := rb.sc.send(&ack); err != nil {
			return
		}
	}
}

// RoundTrip ships one partition and waits for the sink's ack. gobBlob
// forces the legacy per-message gob partition encoding; otherwise dense
// partitions take the raw frame path. ack is caller-owned reusable
// receive storage.
func (rb *RotationBench) RoundTrip(array string, p *dsm.Partition, gobBlob bool, ack *Msg) error {
	if gobBlob {
		blob, err := p.Encode()
		if err != nil {
			return err
		}
		if err := rb.cc.send(&Msg{Kind: MsgRotate, Array: array, PartBlob: blob}); err != nil {
			return err
		}
	} else {
		if _, err := rb.cc.sendRotation(array, p); err != nil {
			return err
		}
	}
	return rb.cc.recvInto(ack)
}

// BytesSent returns the cumulative wire bytes the client end has
// written, including tag and framing overhead.
func (rb *RotationBench) BytesSent() int64 { return rb.stats.BytesSent.Value() }

// Close shuts the sink down and releases both pipe ends.
func (rb *RotationBench) Close() {
	_ = rb.cc.send(&Msg{Kind: MsgShutdown})
	<-rb.done
	_ = rb.cc.close()
	_ = rb.sc.close()
}
