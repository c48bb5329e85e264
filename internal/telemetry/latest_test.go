package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// mapLatestPower is LatestPower as it was first written — four parallel
// maps keyed by device — kept as the reference the slot view must match.
type mapLatestPower struct {
	power  map[string]power.Watts
	at     map[string]time.Time
	stamps map[string]Stamps
	event  map[string]uint64
	rec    *recorder.Recorder
	role   string
}

func newMapLatestPower(rec *recorder.Recorder, role string) *mapLatestPower {
	return &mapLatestPower{
		power: map[string]power.Watts{}, at: map[string]time.Time{},
		stamps: map[string]Stamps{}, event: map[string]uint64{},
		rec: rec, role: role,
	}
}

// Update reports whether it changed the device's entry; dequeuedAt is the
// instant the consumer handed s over with.
func (l *mapLatestPower) Update(s Sample, dequeuedAt time.Time) bool {
	if !s.Valid {
		return false
	}
	if t, ok := l.at[s.Device]; ok && !s.MeasuredAt.After(t) {
		return false
	}
	l.power[s.Device] = s.Power
	l.at[s.Device] = s.MeasuredAt
	l.stamps[s.Device] = Stamps{MeasuredAt: s.MeasuredAt, PublishedAt: s.PublishedAt, DequeuedAt: dequeuedAt}
	if l.rec != nil {
		l.event[s.Device] = l.rec.Emit(recorder.Event{
			Type: recorder.TypeSampleArrive, Time: s.MeasuredAt, Actor: l.role,
			Subject: s.Device, Value: float64(s.Power), Cause: s.Event,
		})
	}
	return true
}

func (l *mapLatestPower) Oldest(now time.Time) (time.Duration, bool) {
	var worst time.Duration
	ok := false
	for _, t := range l.at {
		if age := now.Sub(t); !ok || age > worst {
			worst, ok = age, true
		}
	}
	return worst, ok
}

// TestLatestPowerMatchesMapReference drives the slot view and the map
// reference with the same random samples — new devices, stale and
// equal-timestamp repeats, invalid readings — each emitting into its own
// recorder, and compares every reader after every update. Fed singly, the
// view takes samples one at a time, alternately through Update (no dequeue
// instant), whose answer must be whether the reference's entry changed, and
// as a one-sample UpdateBatch with a dequeue instant. Batched, it takes
// UpdateBatch, stamped with one dequeue instant a batch, of whole polls in
// slot order, in reversed order (every hint misses) and of random devices
// with duplicates. Mixed, each of those batches goes in either whole or as a
// loop of Update, so the two interleave on one recorded view. Single and
// batched run with and without a recorder. UpdateBatch must leave its batch
// as it was. Some samples carry no PublishedAt, and a few no stamp at all:
// the view keeps its stamps as nanoseconds, and every time it hands back
// must be the reference's, zero where the reference's is zero.
func TestLatestPowerMatchesMapReference(t *testing.T) {
	devices := make([]string, 45) // the last five never report
	for d := range devices {
		devices[d] = fmt.Sprintf("dev-%02d", d)
	}
	type mode struct {
		feed     string // "single", "batched" or "mixed"
		recorded bool
	}
	for _, mode := range []mode{{"single", true}, {"single", false}, {"batched", true}, {"batched", false}, {"mixed", true}} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			recGot, recWant := recorder.New(1<<15), recorder.New(1<<15)
			if !mode.recorded {
				recGot, recWant = nil, nil
			}
			got := NewLatestPower()
			got.SetRecorder(recGot, "rack-view")
			want := newMapLatestPower(recWant, "rack-view")
			if _, ok := got.Oldest(t0()); ok {
				t.Fatal("empty view reports an oldest device")
			}
			into := map[string]power.Watts{"left-over": 1}
			now := t0()
			sample := func(dev int) Sample {
				at := now.Add(-time.Duration(rng.Intn(3)) * time.Second)
				s := Sample{
					Device: devices[dev], Power: power.Watts(rng.Intn(1000)),
					Valid: rng.Intn(10) > 0, MeasuredAt: at, PublishedAt: at.Add(time.Millisecond),
					Event: uint64(rng.Intn(100)),
				}
				switch rng.Intn(50) {
				case 0: // never stamped at all
					s.MeasuredAt, s.PublishedAt = time.Time{}, time.Time{}
				case 1, 2, 3, 4: // fed past a broker
					s.PublishedAt = time.Time{}
				}
				return s
			}
			steps := 2000
			if mode.feed != "single" {
				steps = 200
			}
			for i := 0; i < steps; i++ {
				now = now.Add(time.Duration(rng.Intn(3)) * time.Second) // 0 repeats a timestamp
				var batch []Sample
				switch {
				case mode.feed == "single":
					batch = append(batch, sample(rng.Intn(40)))
				case i%3 == 0: // a poll: the first 30+ devices in order, the tail joining late
					for dev := 0; dev < 30+min(i/10, 10); dev++ {
						batch = append(batch, sample(dev))
					}
				case i%3 == 1:
					for dev := 39; dev >= 0; dev-- {
						batch = append(batch, sample(dev))
					}
				default:
					for k := rng.Intn(60); k > 0; k-- {
						batch = append(batch, sample(rng.Intn(40)))
					}
				}
				if mode.feed == "single" && i%2 == 0 || mode.feed == "mixed" && rng.Intn(2) == 0 {
					for _, s := range batch {
						if g, w := got.Update(s), want.Update(s, time.Time{}); g != w {
							t.Fatalf("%+v seed %d step %d: Update(%+v) = %v, reference entry changed %v", mode, seed, i, s, g, w)
						}
					}
				} else {
					deq := now.Add(2 * time.Millisecond)
					before := slices.Clone(batch)
					got.UpdateBatch(batch, deq)
					if !slices.Equal(batch, before) {
						t.Fatalf("%+v seed %d step %d: UpdateBatch wrote to its caller's batch", mode, seed, i)
					}
					for _, s := range batch {
						want.Update(s, deq)
					}
				}

				for _, dev := range devices {
					gv, gat, gev, gok := got.GetEvent(dev)
					wv, wok := want.power[dev]
					// The stamps are the reference's time.Times, not only equal
					// instants: zero stays zero, and t0's UTC stays UTC.
					if gok != wok || gv != wv || gat != want.at[dev] || gev != want.event[dev] {
						t.Fatalf("%+v seed %d step %d: GetEvent(%s) = %v %v %d %v, reference %v %v %d %v",
							mode, seed, i, dev, gv, gat, gev, gok, wv, want.at[dev], want.event[dev], wok)
					}
					if v, at, ok := got.Get(dev); ok != gok || v != gv || at != gat {
						t.Fatalf("%+v seed %d step %d: Get(%s) = %v %v %v disagrees with GetEvent", mode, seed, i, dev, v, at, ok)
					}
					gst, gok := got.GetStamps(dev)
					if wst, wok := want.stamps[dev]; gok != wok || gst != wst {
						t.Fatalf("%+v seed %d step %d: GetStamps(%s) = %+v %v, reference %+v %v", mode, seed, i, dev, gst, gok, wst, wok)
					}
				}
				gold, gok := got.Oldest(now)
				if wold, wok := want.Oldest(now); gok != wok || gold != wold {
					t.Fatalf("%+v seed %d step %d: Oldest = %v %v, reference %v %v", mode, seed, i, gold, gok, wold, wok)
				}
				if got.Count() != len(want.power) {
					t.Fatalf("%+v seed %d step %d: Count = %d, reference %d", mode, seed, i, got.Count(), len(want.power))
				}
				if i%50 == 0 {
					if snap := got.Snapshot(); !reflect.DeepEqual(snap, want.power) {
						t.Fatalf("%+v seed %d step %d: Snapshot = %v, reference %v", mode, seed, i, snap, want.power)
					}
					if got.SnapshotInto(into); !reflect.DeepEqual(into, want.power) {
						t.Fatalf("%+v seed %d step %d: SnapshotInto = %v, reference %v", mode, seed, i, into, want.power)
					}
				}
			}
			if !mode.recorded {
				continue
			}
			if recGot.Overwritten() > 0 {
				t.Fatalf("%+v seed %d: the recorder wrapped; the streams below would be partial", mode, seed)
			}
			if g, w := recGot.Snapshot(), recWant.Snapshot(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%+v seed %d: the views emitted different sample-arrive streams (%d vs %d events)", mode, seed, len(g), len(w))
			}
		}
	}
}

// TestPipelineInvalidCopyDoesNotBlockValid: one path's poller lost quorum
// at t, the other's read the device at the same t. The invalid copy arrives
// first, in the same drained run or one sample at a time, and must not take
// t from the valid one.
func TestPipelineInvalidCopyDoesNotBlockValid(t *testing.T) {
	invalid := Sample{Device: "UPS-1", Valid: false, MeasuredAt: t0()}
	valid := Sample{Device: "UPS-1", Power: 500, Valid: true, MeasuredAt: t0()}
	batched := NewLatestPower()
	batched.UpdateBatch([]Sample{invalid, valid}, t0())
	single := NewLatestPower()
	if single.Update(invalid) || !single.Update(valid) {
		t.Fatal("Update took the invalid copy or refused the valid one")
	}
	for name, view := range map[string]*LatestPower{"UpdateBatch": batched, "Update": single} {
		if v, at, ok := view.Get("UPS-1"); !ok || v != 500 || !at.Equal(t0()) {
			t.Fatalf("%s: view holds %v at %v (ok %v), want the valid 500 W taken at %v", name, v, at, ok, t0())
		}
	}
}

// TestViewSizedByItsTraffic: a view fed a 275-device poll in batches of at
// most 256 samples grows its slots once a batch to exactly the devices it
// has — never doubling past them — and takes every later poll without
// allocating, recorded or not.
func TestViewSizedByItsTraffic(t *testing.T) {
	poll := make([]Sample, 275)
	for i := range poll {
		poll[i] = Sample{Device: fmt.Sprintf("rack-%03d", i), Power: power.Watts(i), Valid: true}
	}
	for _, recorded := range []bool{false, true} {
		view := NewLatestPower()
		if recorded {
			view.SetRecorder(recorder.New(1<<12), "rack-view")
		}
		at := t0()
		deliver := func() {
			at = at.Add(2 * time.Second)
			for i := range poll {
				poll[i].MeasuredAt = at
			}
			for lo := 0; lo < len(poll); lo += 256 {
				view.UpdateBatch(poll[lo:min(lo+256, len(poll))], at)
			}
		}
		deliver()
		if len(view.slots) != len(poll) || cap(view.slots) != len(poll) {
			t.Errorf("recorded %v: %d slots of capacity %d for %d devices", recorded, len(view.slots), cap(view.slots), len(poll))
		}
		if allocs := testing.AllocsPerRun(50, deliver); allocs != 0 {
			t.Errorf("recorded %v: a steady poll allocated %.1f times, want 0", recorded, allocs)
		}
		if v, gotAt, ok := view.Get("rack-274"); !ok || v != 274 || !gotAt.Equal(at) {
			t.Errorf("recorded %v: Get(rack-274) = %v %v %v after the last poll", recorded, v, gotAt, ok)
		}
	}
}
