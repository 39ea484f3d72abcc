package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"orion/internal/check"
	"orion/internal/dslkernel"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
	"orion/internal/plan"
	"orion/internal/runtime"
	"orion/internal/sched"
)

const (
	// sampleIters is how many of the workload's real samples the
	// per-iteration measurements run over.
	sampleIters = 20_000
	// repeats is how often a millisecond-scale call is timed; the median
	// is reported.
	repeats = 9
)

// medianOf times f repeats times, each under a span, and returns the
// median.
func medianOf(rec *recorder, call string, f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < repeats; i++ {
		d, err := rec.do(call, f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", call, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// programSource renders the workload as a program file (preamble,
// '---', loop): the form check.Source and orion-vet take.
func programSource(w workload, f *fixture) string {
	var b strings.Builder
	for _, a := range f.arrays {
		fmt.Fprintf(&b, "array %s", a.Name())
		for _, d := range a.Dims() {
			fmt.Fprintf(&b, " %d", d)
		}
		b.WriteByte('\n')
	}
	for _, buf := range f.buffers {
		fmt.Fprintf(&b, "buffer %s %s\n", buf[0], buf[1])
	}
	fmt.Fprintf(&b, "global %s\n", strings.Join(sortedKeys(f.globals), " "))
	fmt.Fprintf(&b, "ordered %v\n---%s", w.ordered, w.src)
	return b.String()
}

// standalone times the public entry points of the layers below the
// runtime on the workload's own source, arrays and samples.
func standalone(w workload, cfg config, o *ops, m metrics, rec *recorder, art *plan.Artifact, def *runtime.Msg) error {
	f := w.build(cfg.seed, cfg.smoke)
	own := f.own()
	loop, err := lang.Parse(w.src)
	if err != nil {
		return err
	}
	env := compileEnv(f, loop)
	keys, vals := keyStream(f.iterArray())
	if len(keys) > sampleIters {
		keys, vals = keys[:sampleIters], vals[:sampleIters]
	}
	perIter := func(d time.Duration) float64 { return float64(d) / float64(len(keys)) }

	// lang, vm: front end and the three loop backends.
	d, err := medianOf(rec, "lang.Parse", func() error { _, err := lang.Parse(w.src); return err })
	if err != nil {
		return err
	}
	m.set("lang.parse_us", float64(d)/1e3, "us")
	if d, err = medianOf(rec, "vm.Compile", func() error { _, err := vm.Compile(loop, env); return err }); err != nil {
		return err
	}
	m.set("vm.compile_ms", float64(d)/1e6, "ms")

	// The interpreter and the closure kernel train on f's arrays in
	// turn; nothing below depends on the values in them.
	machine := lang.NewMachine()
	machine.Rng = rand.New(rand.NewSource(cfg.seed))
	for _, a := range f.arrays[1:] {
		machine.Arrays[a.Name()] = a
	}
	for _, b := range f.buffers {
		machine.Buffers[b[0]] = dsm.NewBuffer(own(b[1]), nil)
	}
	for g, v := range f.globals {
		machine.Globals[g] = v
	}
	for _, a := range lang.Accumulators(loop) {
		machine.Globals[a] = float64(0)
	}
	if d, err = rec.do("lang.Machine.RunIteration", func() error {
		for i := range keys {
			if err := machine.RunIteration(loop, keys[i], vals[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("lang.interp_ns_per_iter", perIter(d), "ns")

	cl, err := lang.CompileLoop(loop, env)
	if err != nil {
		return err
	}
	ck := cl.NewKernel()
	if _, err := bind(ck, f, loop, cfg.seed); err != nil {
		return err
	}
	if d, err = rec.do("lang.CompiledKernel.RunIteration", func() error {
		for i := range keys {
			if err := ck.RunIteration(keys[i], vals[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("lang.closure_ns_per_iter", perIter(d), "ns")

	// check, plan: the static pipeline.
	src := programSource(w, f)
	var res *check.Result
	if d, err = medianOf(rec, "check.Source", func() error { res = check.Source(src, check.Options{}); return res.Err() }); err != nil {
		return err
	}
	m.set("check.vet_ms", float64(d)/1e6, "ms")
	if d, err = medianOf(rec, "check.Result.BuildArtifact", func() error { _, err := res.BuildArtifact(workers); return err }); err != nil {
		return err
	}
	m.set("plan.build_ms", float64(d)/1e6, "ms")
	var blob []byte
	_, _ = rec.do("plan.Artifact.EncodeBinary", func() error { blob = art.EncodeBinary(); return nil })
	m.set("plan.blob_bytes", float64(len(blob)), "B")
	if d, err = medianOf(rec, "plan.Decode", func() error { _, err := plan.Decode(blob); return err }); err != nil {
		return err
	}
	m.set("plan.decode_us", float64(d)/1e3, "us")

	// dslkernel: what every worker does with a DefineLoop message, and
	// the synthesized prefetch functions it then runs per sample.
	var ks *runtime.KernelSet
	if d, err = medianOf(rec, "dslkernel.Compile", func() error { ks, err = dslkernel.Compile(def); return err }); err != nil {
		return err
	}
	m.set("dslkernel.compile_ms", float64(d)/1e6, "ms")
	d, _ = rec.do("runtime.KernelSet.Prefetch", func() error {
		for _, array := range sortedKeys(ks.Prefetch) {
			fn := ks.Prefetch[array]
			for i := range keys {
				fn(keys[i], vals[i])
			}
		}
		return nil
	})
	if len(ks.Prefetch) == 0 {
		d = 0 // nothing is read through the served path
	}
	m.set("dslkernel.prefetch_ns_per_iter", perIter(d), "ns")

	// dsm: flattening, partitioning and the partition codec, over every
	// array the plan distributes.
	iter := f.iterArray()
	d, _ = rec.do("dsm.DistArray.ForEach", func() error { iter.ForEach(func([]int64, float64) {}); return nil })
	m.set("dsm.foreach_ns_per_elem", float64(d)/float64(iter.Len()), "ns")

	pl, err := art.SchedPlan()
	if err != nil {
		return err
	}
	space, err := art.Space.Partitioner()
	if err != nil {
		return err
	}
	var parts []*dsm.Partition
	var rotated *dsm.Partition
	d, _ = rec.do("dsm.DistArray.RangePartitions", func() error {
		for _, ap := range pl.Arrays {
			if ap.Array == iter.Name() {
				continue
			}
			a := own(ap.Array)
			var ps []*dsm.Partition
			switch ap.Place {
			case sched.Local:
				ps = a.RangePartitions(ap.PartDim, workers, boundaries(space))
			case sched.Rotated:
				tp, err := art.Time.Partitioner()
				if err != nil {
					return err
				}
				ps = a.RangePartitions(ap.PartDim, workers, boundaries(tp))
				rotated = ps[0]
			default:
				ps = a.EqualRangePartitions(a.NumDims()-1, workers)
			}
			parts = append(parts, ps...)
		}
		return nil
	})
	m.set("dsm.range_partition_ms", float64(d)/1e6, "ms")

	var blobs [][]byte
	var bytes int
	if d, err = rec.do("dsm.Partition.Encode", func() error {
		for _, p := range parts {
			b, err := p.Encode()
			if err != nil {
				return err
			}
			blobs = append(blobs, b)
			bytes += len(b)
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("dsm.part_encode_mb_per_s", float64(bytes)/1e6/d.Seconds(), "MB/s")
	var decoded []*dsm.Partition
	if d, err = rec.do("dsm.DecodePartition", func() error {
		for _, b := range blobs {
			p, err := dsm.DecodePartition(b)
			if err != nil {
				return err
			}
			decoded = append(decoded, p)
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("dsm.part_decode_mb_per_s", float64(bytes)/1e6/d.Seconds(), "MB/s")
	d, _ = rec.do("dsm.Partition.WriteBack", func() error {
		for _, p := range decoded {
			p.WriteBack(own(p.Array))
		}
		return nil
	})
	m.set("dsm.writeback_ms", float64(d)/1e6, "ms")

	// runtime: the peer codec's rotation path, on the partition shape
	// this workload rotates — or, when it rotates nothing, on its
	// largest distributed partition.
	if rotated == nil {
		for _, p := range parts {
			if p.Local.IsDense() && (rotated == nil || p.Bytes() > rotated.Bytes()) {
				rotated = p
			}
		}
	}
	rb := runtime.NewRotationBench()
	defer rb.Close()
	var ack runtime.Msg
	const trips = 50
	if d, err = rec.do("runtime.RotationBench.RoundTrip", func() error {
		for i := 0; i < trips; i++ {
			if err := rb.RoundTrip(rotated.Array, rotated, false, &ack); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("runtime.rotation_mb_per_s", float64(rb.BytesSent())/1e6/d.Seconds(), "MB/s")
	o.record("standalone calls", nil)
	return nil
}
