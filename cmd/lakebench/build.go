package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"lakenav"
)

// A build run makes at least minBuilds timed builds, however long each
// takes, and restarts its navserver after every restartEvery builds, at
// least minRestarts times in all.
const (
	minBuilds    = 3
	restartEvery = 2
	minRestarts  = 3
)

// runBuild times the paper's construction cost: LoadJSON plus
// OrganizeContext, in process, on one lake after another from the
// seed's lake sequence, for the run's measured seconds. Set-up is
// generating a lake. An untimed warm-up builds lake 0 first; the timed
// rebuild of lake 0 must reproduce its fingerprint bit for bit. A
// navserver serves the warm-up build; killed and restarted between
// builds, it times recovery over the whole run rather than at its end.
func runBuild(r *run) error {
	var setups []float64
	makeNext := func(j int) (*lakeInput, error) {
		t0 := time.Now()
		in, err := makeLake(filepath.Join(r.work, fmt.Sprintf("lake%d.json", j)), lakenav.FormatJSON, r.seed, j)
		setups = append(setups, time.Since(t0).Seconds())
		return in, err
	}
	first, err := makeNext(0)
	if err != nil {
		return err
	}
	l, warm, err := organize(first.path, r.seed, nil)
	if err != nil {
		return err
	}
	reference := warm.Fingerprint()
	warmOrg := filepath.Join(r.work, "org-warm.bin")
	if err := validate(l, warm, warmOrg); err != nil {
		return err
	}
	ns, err := r.newProc("navserver", r.bins.navserver, "-lake", first.path, "-org", warmOrg)
	if err != nil {
		return err
	}
	if err := ns.start(); err != nil {
		return err
	}
	if err := ns.waitReady(time.Minute); err != nil {
		return err
	}

	budget := time.Duration(r.seconds) * time.Second
	start := time.Now()
	var times, recoveries []float64
	var cons construction
	restart := func() error {
		s, err := r.timeRecovery(ns)
		recoveries = append(recoveries, s)
		return err
	}
	for j := 0; time.Since(start) < budget || j < minBuilds; j++ {
		in := first
		if j > 0 {
			if in, err = makeNext(j); err != nil {
				return err
			}
		}
		rec := cons.begin(r)
		t0 := time.Now()
		l, org, err := organize(in.path, r.seed, rec.progress())
		d := time.Since(t0)
		if err != nil {
			return err
		}
		rec.end(r, t0, d)
		times = append(times, ms(d))
		r.tally.attempted++
		err = validate(l, org, filepath.Join(r.work, fmt.Sprintf("org%d.bin", j)))
		if err == nil && j == 0 && org.Fingerprint() != reference {
			err = fmt.Errorf("rebuild of lake 0 has fingerprint %s, the first build %s", org.Fingerprint(), reference)
		}
		if err != nil {
			r.tally.failed++
			r.fail(fmt.Errorf("build %d: %w", j, err))
		}
		cons.effectiveness = append(cons.effectiveness, org.Effectiveness())
		if j%restartEvery == restartEvery-1 {
			if err := restart(); err != nil {
				return err
			}
		}
	}
	for len(recoveries) < minRestarts {
		if err := restart(); err != nil {
			return err
		}
	}
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return err
	}
	r.rates = fmt.Sprintf("builds=%d restarts=%d", len(times), len(recoveries))
	r.set("setup_s", median(setups))
	// Builds per second at the median build: a mean over the run would
	// let the few builds a slow spell of the host catches decide it.
	r.set("p50_ms", median(times))
	r.set("goodput_per_s", 1000/median(times))
	r.set("peak_rss_mb", rss)
	r.set("recovery_s", median(recoveries))

	ref, err := loadReference(first.path, warmOrg)
	if err != nil {
		return err
	}
	r.checkServer(ref, first.vocab, ns.base)

	if r.traced() {
		r.set("lakebench.traced_p50_ms", median(times))
		r.set("lakebench.p90_ms", quantile(times, 0.90))
		r.set("lakebench.p99_ms", quantile(times, 0.99))
		cons.report(r)
		if err := constructionLayers(r, first.path, r.seed); err != nil {
			return err
		}
		if err := coldstartLayers(r, first.path, warmOrg); err != nil {
			return err
		}
	}
	return nil
}

// timeRecovery times one recovery: it kills p with SIGKILL, starts it again
// with the same arguments, and waits until it is ready to serve.
func (r *run) timeRecovery(p *proc) (float64, error) {
	p.kill()
	t0 := time.Now()
	if err := p.start(); err != nil {
		return 0, err
	}
	if err := p.waitReady(time.Minute); err != nil {
		return 0, err
	}
	if r.traced() {
		r.tr.root("coldstart.restart", t0, time.Now())
	}
	return time.Since(t0).Seconds(), nil
}

// heapMB is the total bytes allocated so far, in MiB.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
