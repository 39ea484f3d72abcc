package dsm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeTestCheckpoint(t *testing.T, dir string, clock int64, keep int) *Manifest {
	t.Helper()
	w := NewDense("W", 2, 3)
	w.SetAt(float64(clock), 1, 2)
	h := NewDense("H", 4)
	h.SetAt(0.5, 0)
	man := &Manifest{
		Clock:       clock,
		ResumePass:  int(clock) / 10,
		Workers:     3,
		Loop:        "dsl-loop-1",
		Fingerprint: "fp-abc",
		Accums:      map[string]float64{"err": float64(clock) * 1.5},
	}
	if _, err := WriteCheckpoint(dir, man, []*DistArray{w, h}, keep); err != nil {
		t.Fatal(err)
	}
	return man
}

func TestManifestWriteRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, dir, 7, 0)

	mans, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 1 || mans[0].Clock != 7 || mans[0].Version != ManifestVersion {
		t.Fatalf("manifests = %+v", mans)
	}
	man := mans[0]
	if man.Loop != "dsl-loop-1" || man.Fingerprint != "fp-abc" || man.Workers != 3 {
		t.Fatalf("manifest identity lost: %+v", man)
	}
	if len(man.Arrays) != 2 || man.Arrays[0] != "H" || man.Arrays[1] != "W" {
		t.Fatalf("arrays = %v, want sorted [H W]", man.Arrays)
	}
	if man.Accums["err"] != 10.5 {
		t.Fatalf("accums = %v", man.Accums)
	}
	restored, err := RestoreCheckpoint(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored["W"].At(1, 2); got != 7 {
		t.Fatalf("restored W[1,2] = %v, want 7", got)
	}
	if got := restored["H"].At(0); got != 0.5 {
		t.Fatalf("restored H[0] = %v, want 0.5", got)
	}
}

func TestManifestListNewestFirstAndPrune(t *testing.T) {
	dir := t.TempDir()
	for clock := int64(1); clock <= 6; clock++ {
		writeTestCheckpoint(t, dir, clock, 3)
	}
	mans, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 3 {
		t.Fatalf("kept %d checkpoints, want 3 (prune)", len(mans))
	}
	for i, want := range []int64{6, 5, 4} {
		if mans[i].Clock != want {
			t.Fatalf("order: mans[%d].Clock = %d, want %d", i, mans[i].Clock, want)
		}
	}
	// The pruned directories are really gone.
	if _, err := os.Stat(filepath.Join(dir, ckptDirName(1))); !os.IsNotExist(err) {
		t.Fatalf("pruned checkpoint still on disk: %v", err)
	}
}

func TestManifestSweepsCrashDebris(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, dir, 3, 0)

	// A staging dir from a writer that crashed before the rename, and a
	// committed-looking dir whose manifest never landed: both must be
	// swept, not restored from.
	stale := filepath.Join(dir, ckptDirName(9)+tmpSuffix)
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	headless := filepath.Join(dir, ckptDirName(8))
	if err := os.MkdirAll(headless, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(headless, "W.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	mans, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 1 || mans[0].Clock != 3 {
		t.Fatalf("list = %+v, want only the committed clock-3 checkpoint", mans)
	}
	for _, gone := range []string{stale, headless} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("%s not swept: %v", gone, err)
		}
	}

	// A missing directory is an empty list, not an error.
	if mans, err := ListCheckpoints(filepath.Join(dir, "nope")); err != nil || len(mans) != 0 {
		t.Fatalf("missing dir: %v, %v", mans, err)
	}
}

func TestManifestRestoreErrorNamesEveryFailure(t *testing.T) {
	dir := t.TempDir()
	man := writeTestCheckpoint(t, dir, 5, 0)
	cdir := filepath.Join(dir, ckptDirName(5))
	if err := os.WriteFile(filepath.Join(cdir, "W.ckpt"), []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(cdir, "H.ckpt")); err != nil {
		t.Fatal(err)
	}
	_, err := RestoreCheckpoint(dir, man)
	var rerr *RestoreError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v, want *RestoreError", err)
	}
	if len(rerr.Failed) != 2 {
		t.Fatalf("failed = %v, want both arrays reported", rerr.Failed)
	}
	if rerr.Errs["W"] == nil || rerr.Errs["H"] == nil {
		t.Fatalf("per-array errors missing: %+v", rerr.Errs)
	}
	if rerr.Unwrap() == nil {
		t.Fatal("RestoreError must unwrap to an underlying cause")
	}
}

func TestManifestVersionMismatchIgnored(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, dir, 2, 0)
	cdir := filepath.Join(dir, ckptDirName(2))
	// Rewrite the manifest with a future version: the checkpoint becomes
	// unusable and is dropped from the listing.
	if err := os.WriteFile(filepath.Join(cdir, manifestFile),
		[]byte(`{"version": 99, "clock": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	mans, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 0 {
		t.Fatalf("future-version checkpoint listed: %+v", mans)
	}
}

// goldenCheckpoint is what the committed checkpoints under testdata
// hold: a dense and a sparse array at clock 12.
func goldenCheckpoint() (*Manifest, []*DistArray) {
	w := NewDense("W", 2, 3)
	for i := int64(0); i < 6; i++ {
		w.SetFlat(i, float64(i)*1.5-2)
	}
	z := NewSparse("z", 4, 5)
	z.SetAt(3, 1, 2)
	z.SetAt(-0.25, 3, 4)
	return &Manifest{Clock: 12, ResumePass: 3, Workers: 2, Loop: "dsl-mf-1"}, []*DistArray{w, z}
}

// copyCheckpoints copies the checkpoint directories under src into a
// fresh directory: listing sweeps what it cannot restore from.
func copyCheckpoints(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ckpts, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ckpts {
		files, err := os.ReadDir(filepath.Join(src, c.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dst, c.Name()), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(src, c.Name(), f.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(dst, c.Name(), f.Name()), data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// TestGoldenCheckpoint: the committed checkpoint of this format
// (testdata/checkpoint-v2) is what writing its arrays produces, byte for
// byte, and restores to them bitwise. One the previous format wrote
// (testdata/checkpoint-v1: manifest version 1, gob-encoded arrays) is
// refused by its manifest's version, and swept. Regenerate with:
//
//	ORION_UPDATE_GOLDEN=1 go test ./internal/dsm -run TestGoldenCheckpoint
func TestGoldenCheckpoint(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint-v2")
	man, arrays := goldenCheckpoint()
	if os.Getenv("ORION_UPDATE_GOLDEN") != "" {
		if err := os.RemoveAll(golden); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteCheckpoint(golden, man, arrays, 1); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := WriteCheckpoint(dir, man, arrays, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestFile, "W.ckpt", "z.ckpt"} {
		got, err := os.ReadFile(filepath.Join(dir, ckptDirName(12), name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(golden, ckptDirName(12), name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s drifted from the golden checkpoint; bump ManifestVersion and regenerate with ORION_UPDATE_GOLDEN=1", name)
		}
	}
	restored := copyCheckpoints(t, golden)
	mans, err := ListCheckpoints(restored)
	if err != nil || len(mans) != 1 {
		t.Fatalf("the golden checkpoint lists as %v, %v", mans, err)
	}
	got, err := RestoreCheckpoint(restored, mans[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrays {
		want, _ := a.Encode()
		if b, _ := got[a.Name()].Encode(); string(b) != string(want) {
			t.Errorf("%s restored other than it was written", a.Name())
		}
	}

	old := copyCheckpoints(t, filepath.Join("testdata", "checkpoint-v1"))
	if mans, err := ListCheckpoints(old); err != nil || len(mans) != 0 {
		t.Errorf("a version-1 checkpoint lists as %v, %v; want it refused", mans, err)
	}
	if left, _ := os.ReadDir(old); len(left) != 0 {
		t.Errorf("the refused version-1 checkpoint was not swept: %d entries left", len(left))
	}
}
