package dsm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ManifestVersion is the on-disk checkpoint manifest format version.
const ManifestVersion = 1

// DefaultKeep is how many committed checkpoints a directory retains
// when the writer does not say otherwise.
const DefaultKeep = 4

// Manifest describes one committed coordinated checkpoint: which
// arrays were snapshotted, at which loop clock, under which plan
// fingerprint, and where a resumed run should pick up. It is the
// commit record — a checkpoint directory without a manifest is
// incomplete and ignored.
type Manifest struct {
	Version int   `json:"version"`
	Clock   int64 `json:"clock"`
	// ResumePass/ResumeStep is the first step a resumed run executes.
	ResumePass int `json:"resume_pass"`
	ResumeStep int `json:"resume_step"`
	// Workers is the fleet size the snapshot was cut for. A mid-pass
	// checkpoint (ResumeStep > 0) is only resumable on the same fleet
	// size — the rotation phase is meaningless under different cuts.
	Workers int `json:"workers"`
	// Loop is the kernel name; Fingerprint the plan artifact's content
	// hash the checkpointed state belongs to.
	Loop        string `json:"loop"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Arrays lists the snapshotted DistArrays (one <name>.ckpt each,
	// beside the manifest). Accums are accumulator totals at the
	// checkpoint, absolute across any earlier recoveries.
	Arrays []string           `json:"arrays"`
	Accums map[string]float64 `json:"accums,omitempty"`
}

const (
	manifestFile = "MANIFEST.json"
	ckptPrefix   = "ckpt-"
	tmpSuffix    = ".tmp"
)

func ckptDirName(clock int64) string { return fmt.Sprintf("%s%016d", ckptPrefix, clock) }

// WriteCheckpoint commits one coordinated checkpoint under dir:
// arrays and the manifest are staged in a temporary directory, every
// file is fsynced, and a single rename publishes the checkpoint — a
// crash at any point leaves either the previous checkpoint set or a
// stale *.tmp directory that restore sweeps. Returns the bytes
// written. Older checkpoints beyond keep (DefaultKeep when <= 0) are
// pruned.
func WriteCheckpoint(dir string, man *Manifest, arrays []*DistArray, keep int) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	man.Version = ManifestVersion
	man.Arrays = man.Arrays[:0]
	for _, a := range arrays {
		man.Arrays = append(man.Arrays, a.Name())
	}
	sort.Strings(man.Arrays)

	final := filepath.Join(dir, ckptDirName(man.Clock))
	tmp := final + tmpSuffix
	if err := os.RemoveAll(tmp); err != nil {
		return 0, err
	}
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return 0, err
	}
	var bytes int64
	for _, a := range arrays {
		data, err := a.Encode()
		if err != nil {
			os.RemoveAll(tmp)
			return 0, fmt.Errorf("dsm: checkpoint %s: %w", a.Name(), err)
		}
		if err := writeFileSync(filepath.Join(tmp, a.Name()+".ckpt"), data); err != nil {
			os.RemoveAll(tmp)
			return 0, fmt.Errorf("dsm: checkpoint %s: %w", a.Name(), err)
		}
		bytes += int64(len(data))
	}
	mdata, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		os.RemoveAll(tmp)
		return 0, err
	}
	if err := writeFileSync(filepath.Join(tmp, manifestFile), mdata); err != nil {
		os.RemoveAll(tmp)
		return 0, err
	}
	bytes += int64(len(mdata))
	if err := syncDir(tmp); err != nil {
		os.RemoveAll(tmp)
		return 0, err
	}
	// The previous committed checkpoint at this clock (a re-run after a
	// restore) is replaced.
	if err := os.RemoveAll(final); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	pruneCheckpoints(dir, keep)
	return bytes, nil
}

// ListCheckpoints returns the committed checkpoint manifests under
// dir, newest (highest clock) first, sweeping stale *.tmp staging
// directories and manifest-less checkpoint directories left by
// crashed writers. A missing dir is an empty list.
func ListCheckpoints(dir string) ([]*Manifest, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []*Manifest
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() || !strings.HasPrefix(name, ckptPrefix) {
			continue
		}
		if strings.HasSuffix(name, tmpSuffix) {
			// Crashed mid-write: never committed, safe to remove.
			os.RemoveAll(filepath.Join(dir, name))
			continue
		}
		man, err := readManifest(filepath.Join(dir, name))
		if err != nil {
			// No (or unreadable) manifest — the rename never happened or
			// the directory is damaged; it cannot be restored from.
			os.RemoveAll(filepath.Join(dir, name))
			continue
		}
		out = append(out, man)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Clock > out[j].Clock })
	return out, nil
}

// RestoreCheckpoint loads the arrays of one committed checkpoint.
// Arrays that fail to load are collected into a *RestoreError naming
// each failure.
func RestoreCheckpoint(dir string, man *Manifest) (map[string]*DistArray, error) {
	cdir := filepath.Join(dir, ckptDirName(man.Clock))
	out := make(map[string]*DistArray, len(man.Arrays))
	rerr := &RestoreError{Dir: cdir}
	for _, name := range man.Arrays {
		a, err := ReadFile(filepath.Join(cdir, name+".ckpt"))
		if err != nil {
			rerr.add(name, err)
			continue
		}
		out[name] = a
	}
	if len(rerr.Failed) > 0 {
		return nil, rerr
	}
	return out, nil
}

// RestoreError reports which arrays of a checkpoint could not be
// restored.
type RestoreError struct {
	Dir    string
	Failed []string         // array names, in restore order
	Errs   map[string]error // by array name
}

func (e *RestoreError) add(name string, err error) {
	if e.Errs == nil {
		e.Errs = map[string]error{}
	}
	e.Failed = append(e.Failed, name)
	e.Errs[name] = err
}

func (e *RestoreError) Error() string {
	parts := make([]string, 0, len(e.Failed))
	for _, name := range e.Failed {
		parts = append(parts, fmt.Sprintf("%s (%v)", name, e.Errs[name]))
	}
	return fmt.Sprintf("dsm: restore from %s failed for %d array(s): %s",
		e.Dir, len(e.Failed), strings.Join(parts, "; "))
}

// Unwrap exposes the first underlying error for errors.Is/As chains.
func (e *RestoreError) Unwrap() error {
	if len(e.Failed) == 0 {
		return nil
	}
	return e.Errs[e.Failed[0]]
}

func readManifest(cdir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(cdir, manifestFile))
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("dsm: manifest in %s: %w", cdir, err)
	}
	if man.Version != ManifestVersion {
		return nil, fmt.Errorf("dsm: manifest in %s: version %d (want %d)", cdir, man.Version, ManifestVersion)
	}
	return &man, nil
}

func pruneCheckpoints(dir string, keep int) {
	if keep <= 0 {
		keep = DefaultKeep
	}
	all, err := ListCheckpoints(dir)
	if err != nil {
		return
	}
	for _, man := range all[min(keep, len(all)):] {
		os.RemoveAll(filepath.Join(dir, ckptDirName(man.Clock)))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// writeFileSync writes data and fsyncs before closing, so a committed
// rename can never publish a file whose contents are still in flight.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so entry renames/creates are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms cannot fsync directories; that only weakens
	// durability, not correctness of what a reader can observe.
	d.Sync()
	return nil
}
