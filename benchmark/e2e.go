package main

import (
	"fmt"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

const (
	// A run sets up from scratch at least minSetups times, and until
	// setupSeconds have gone into it or maxSetups are done: a 50 ms
	// set-up needs more repeats than a 1 s one for a steady median.
	minSetups    = 3
	maxSetups    = 9
	setupSeconds = 1.0
	// maxE2EPasses bounds a run whose loss never reaches the target.
	maxE2EPasses = 60
)

// setup is everything paid before the first iteration executes:
// fixture generation, session start (executors spawned, handshake
// done), array adoption, and the static pipeline (vet, dependence
// analysis, schedule, plan artifact).
func setup(w workload, cfg config) (*fixture, *session, error) {
	f := w.build(cfg.seed, cfg.smoke)
	sess, err := openSession(w, f, false)
	if err != nil {
		return nil, nil, err
	}
	if _, err := sess.PlanArtifact(w.src); err != nil {
		sess.Close()
		return nil, nil, err
	}
	return f, sess, nil
}

// passesToTarget is the (interpolated) number of passes after which
// the loss crossed the target, or false when it never did.
func passesToTarget(f *fixture, losses []float64) (float64, bool) {
	target := f.target(losses[0])
	for n := 1; n < len(losses); n++ {
		prev, cur := losses[n-1], losses[n]
		if (f.rising && cur >= target) || (!f.rising && cur <= target) {
			return float64(n-1) + (target-prev)/(cur-prev), true
		}
	}
	return float64(len(losses) - 1), false
}

// runE2E is the --trace 0 run: the program's tracer and the bench
// spans are off.
func runE2E(w workload, cfg config) (metrics, *ops, error) {
	o := &ops{}
	var (
		setups []float64
		f      *fixture
		sess   *session
	)
	var spent float64
	for len(setups) < minSetups || (!cfg.smoke && spent < setupSeconds && len(setups) < maxSetups) {
		if sess != nil {
			sess.Close()
		}
		start := time.Now()
		var err error
		if f, sess, err = setup(w, cfg); err != nil {
			return nil, o, err
		}
		d := time.Since(start).Seconds()
		setups, spent = append(setups, d), spent+d
	}
	defer sess.Close()

	// One serial pass follows every parallel pass, so that the serial
	// samples are spread over the whole window and see the host's calm
	// moments as well as its noisy ones.
	serial, err := newSerial(w, cfg, o)
	if err != nil {
		return nil, o, err
	}
	t := sessionTrainer(w, f, cfg, o, nil, sess, "e2e")
	t.cal = &calibrated{}
	step := func() error {
		if err := t.step(); err != nil {
			return err
		}
		return serial.step()
	}
	warm := cfg.e2eWarm()
	for i := 0; i < warm; i++ {
		if err := step(); err != nil {
			return nil, o, err
		}
	}
	wire0 := sess.wire.snapshot()
	window := time.Now()
	// The window closes when it has lasted --seconds, the checks have
	// the passes they need, and the loss has crossed its target.
	done := func() bool {
		n := len(t.log.durs)
		if n < cfg.digestAt() {
			return false
		}
		if cfg.smoke || n >= maxE2EPasses {
			return true
		}
		_, crossed := passesToTarget(f, t.log.losses)
		return crossed && time.Since(window).Seconds() >= cfg.seconds
	}
	for !done() {
		if err := step(); err != nil {
			return nil, o, err
		}
	}
	wire := sess.wire.snapshot().sub(wire0)
	timed := t.cal.values()[warm:]

	checkState(t)
	toTarget, crossed := passesToTarget(f, t.log.losses)
	if !crossed && !cfg.smoke {
		o.record("e2e target", fmt.Errorf("loss %g never reached %g in %d passes",
			t.log.losses[len(t.log.losses)-1], f.target(t.log.losses[0]), len(t.log.durs)))
	} else {
		o.record("e2e target", nil)
	}

	if w.ordered {
		// An ordered loop promises the serial program's result exactly.
		sameState(w, o, "e2e equals serial", t.log, serial.log)
	}

	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("pass_s", median(timed), "s")
	m.set("pass_p75_s", percentile(timed, 0.75), "s")
	m.set("serial_pass_s", serialPassSeconds(serial.log), "s")
	m.set("passes_to_target", toTarget, "passes")
	m.set("wire_mb_per_pass", float64(wire.masterBytes+wire.peerBytes)/float64(len(timed))/1e6, "MB")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Printf("# %s: %d timed passes after %d warm-up, %d serial passes, %d set-ups\n",
		w.name, len(timed), warm, len(serial.log.durs), len(setups))
	fmt.Printf("# uncalibrated: median pass %.6g s (host factor %.3f), median serial pass %.6g s\n",
		median(t.cal.raw[warm:]), t.cal.hostFactor(), median(seconds(serial.log.durs)))
	return m, o, nil
}
