package main

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"flex/internal/placement"
	"flex/internal/placement/online"
	"flex/internal/power"
	"flex/internal/stats"
	"flex/internal/workload"
)

// churnWorkload is admission-churn: one online.Admitter with the resolver
// off, driven through an admit/remove sawtooth, one operation per
// decision, every Admit timed on its own.
type churnWorkload struct {
	env
	room *placement.Room
	// streams[i] is repetition i's arrival stream.
	streams [][]workload.Deployment
}

// arrivalStream generates n arrivals with the §V-A statistics: one long
// trace (the generator stops on demand, so ask for more than n of the
// largest deployment) cut to length.
func arrivalStream(provisioned power.Watts, n int, seed int64) ([]workload.Deployment, error) {
	cfg := workload.DefaultTraceConfig(provisioned)
	cfg.TargetDemand = power.Watts(n) * 20 * 17.2 * power.KW
	out, err := workload.GenerateTrace(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return out[:n], nil
}

func (w *churnWorkload) setup(ctx context.Context) error {
	w.room = placement.PaperRoom()
	w.streams = make([][]workload.Deployment, w.reps+1)
	for i := range w.streams {
		s, err := arrivalStream(w.room.Topo.ProvisionedPower(), w.sc.ChurnDecisions, subseed(w.seed, streamArrivals, i))
		if err != nil {
			return err
		}
		w.streams[i] = s
	}
	_, err := w.admitter(0)
	return err
}

func (w *churnWorkload) admitter(i int) (*online.Admitter, error) {
	return online.NewAdmitter(w.room, online.Config{Seed: subseed(w.seed, streamScenario, i), ResolveEvery: -1})
}

func (w *churnWorkload) inputs(d *digest) {
	for _, s := range w.streams {
		hashDeployments(d, s)
	}
}

func (w *churnWorkload) rep(ctx context.Context, i int, res *result, fp *digest) (repStat, error) {
	adm, err := w.admitter(i)
	if err != nil {
		return repStat{}, err
	}
	run := newChurnRun(len(w.streams[i]))
	st := repStat{ops: len(w.streams[i])}
	st.wall, st.alloc = timed(w.clk, func() { w.churn(i, adm, nil, run, res) })
	st.wall -= run.paused
	run.summarize(adm, &st, fp)
	return st, nil
}

func (w *churnWorkload) traced(ctx context.Context, i int, tr *tracer, res *result) (time.Duration, error) {
	adm, err := w.admitter(i)
	if err != nil {
		return 0, err
	}
	run := newChurnRun(len(w.streams[i]))
	start := w.clk.Now()
	w.churn(i, adm, tr, run, res)
	return w.clk.Now().Sub(start) - run.paused, nil
}

// churnRun is what one pass over a stream records, preallocated so that
// the loop itself allocates nothing.
type churnRun struct {
	lat               []float64         // per-Admit latency, us
	pids              []power.PDUPairID // the decision sequence
	accepted, removes int
	paused            time.Duration // spent validating at peaks
}

func newChurnRun(n int) *churnRun {
	return &churnRun{lat: make([]float64, 0, n), pids: make([]power.PDUPairID, 0, n)}
}

// churn runs the sawtooth over repetition i's stream: admit until the
// first rejection, then remove a random half of the live deployments,
// repeat. A fixed occupancy would let the median flip between the two
// cost modes (a contested admit scores scenarios, a full-room reject is a
// table lookup); the sawtooth sweeps 50-100%. At every peak the committed
// state is validated from scratch, outside the timed span: the time spent
// validating accumulates in run.paused for the caller to subtract.
func (w *churnWorkload) churn(i int, adm *online.Admitter, tr *tracer, run *churnRun, res *result) {
	stream := w.streams[i]
	rng := rand.New(rand.NewSource(subseed(w.seed, streamChurn, i)))
	live := make([]workload.Deployment, 0, w.room.TotalSlots())
	sincePeak := 0

	for _, d := range stream {
		t0 := w.clk.Now()
		pid, ok := adm.Admit(d)
		t1 := w.clk.Now()
		tr.record("online.Admitter.Admit", t0, t1)
		run.lat = append(run.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
		run.pids = append(run.pids, pid)
		sincePeak++
		if ok {
			run.accepted++
			live = append(live, d)
			continue
		}
		// Peak: validate what the admitter has committed.
		p0 := w.clk.Now()
		pl := placement.Placement{Room: w.room, Deployments: live, Assignments: adm.Assignments()}
		err := pl.Validate()
		if err == nil && len(pl.Assignments) != len(live) {
			err = errCommittedMismatch
		}
		run.paused += w.clk.Now().Sub(p0)
		if err != nil {
			// A violation fails every decision since the last clean peak.
			res.fail(sincePeak, "rep %d: committed state invalid at a peak: %v", i, err)
		}
		sincePeak = 0

		rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		half := len(live) / 2
		for _, gone := range live[:half] {
			tr.begin("online.Admitter.Remove")
			adm.Remove(gone.ID)
			tr.end()
			run.removes++
		}
		live = append(live[:0], live[half:]...)
	}
	res.Attempted += len(stream)
}

// summarize folds a finished pass into the repetition's samples and the
// fingerprint.
func (r *churnRun) summarize(adm *online.Admitter, st *repStat, fp *digest) {
	st.put("admit_p50_us", stats.Percentile(r.lat, 50))
	st.put("admit_p99_us", stats.Percentile(r.lat, 99))
	st.put("admit_p99_9_us", stats.Percentile(r.lat, 99.9))
	st.put("accepted", float64(r.accepted))
	decisions := newDigest()
	for _, pid := range r.pids {
		decisions.add("%d", pid)
	}
	snap := adm.Snapshot()
	fp.add("accepted=%d removes=%d committed=%d placed=%.3f decisions=%s", r.accepted, r.removes, snap.Committed, float64(snap.PlacedPower), decisions)
}

var errCommittedMismatch = errors.New("admitter's committed set differs from the accepted-minus-removed set")

func (w *churnWorkload) report(reps []repStat, res *result) {
	var rate []float64
	for _, r := range reps {
		rate = append(rate, float64(r.ops)/r.wall.Seconds())
	}
	res.Metrics["admissions_per_s"] = spread(rate, "1/s")
	res.Metrics["admit_p50_us"] = spread(fold(reps, "admit_p50_us"), "us")
	res.Metrics["admit_p99_us"] = spread(fold(reps, "admit_p99_us"), "us")
	var accepted float64
	for _, a := range fold(reps, "accepted") {
		accepted += a
	}
	res.Metrics["admit_ratio"] = exact(accepted/float64(res.Attempted), "ratio")
}
