package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkerExitsOnVersionSkew: a worker whose master answers its hello
// with a hello of another wire version exits 1 naming both versions,
// even with -rejoin, instead of re-registering forever.
func TestWorkerExitsOnVersionSkew(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "orion-worker")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Read(make([]byte, 64)); err != nil { // the worker's hello
			return
		}
		// A hello of version 999: sequence 0, kind 0, the version, id -1,
		// no address, and its CRC32C trailer.
		frame := binary.AppendUvarint([]byte{0, 0}, 999)
		frame = append(frame, 1, 0)
		conn.Write(binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, crc32.MakeTable(crc32.Castagnoli))))
		conn.Read(make([]byte, 1)) // until the worker hangs up
	}()
	cmd := exec.Command(bin, "-master", ln.Addr().String(), "-peer", "127.0.0.1:0", "-rejoin")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("the worker kept running after a skewed hello:\n%s", stderr.String())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("the worker exited with %v, want status 1:\n%s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "version skew") || !strings.Contains(msg, "999") {
		t.Errorf("the worker's error does not name the skew and the master's version:\n%s", msg)
	}
}
