package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
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

func (l *mapLatestPower) Update(s Sample) {
	if !s.Valid {
		return
	}
	if t, ok := l.at[s.Device]; ok && !s.MeasuredAt.After(t) {
		return
	}
	l.power[s.Device] = s.Power
	l.at[s.Device] = s.MeasuredAt
	l.stamps[s.Device] = Stamps{MeasuredAt: s.MeasuredAt, PublishedAt: s.PublishedAt, DequeuedAt: s.DequeuedAt}
	if l.rec == nil {
		return
	}
	l.event[s.Device] = l.rec.Emit(recorder.Event{
		Type: recorder.TypeSampleArrive, Time: s.MeasuredAt, Actor: l.role,
		Subject: s.Device, Value: float64(s.Power), Cause: s.Event,
	})
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
// recorder, and compares every reader after every update.
func TestLatestPowerMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recGot, recWant := recorder.New(4096), recorder.New(4096)
		got := NewLatestPower()
		got.SetRecorder(recGot, "rack-view")
		want := newMapLatestPower(recWant, "rack-view")
		if _, ok := got.Oldest(t0()); ok {
			t.Fatal("empty view reports an oldest device")
		}
		into := map[string]power.Watts{"left-over": 1}
		now := t0()
		for i := 0; i < 2000; i++ {
			now = now.Add(time.Duration(rng.Intn(3)) * time.Second) // 0 repeats a timestamp
			at := now.Add(-time.Duration(rng.Intn(3)) * time.Second)
			s := Sample{
				Device: fmt.Sprintf("dev-%02d", rng.Intn(40)), Power: power.Watts(rng.Intn(1000)),
				Valid: rng.Intn(10) > 0, MeasuredAt: at, PublishedAt: at.Add(time.Millisecond),
				DequeuedAt: at.Add(2 * time.Millisecond), Event: uint64(rng.Intn(100)),
			}
			got.Update(s)
			want.Update(s)

			dev := fmt.Sprintf("dev-%02d", rng.Intn(45)) // some never reported
			gv, gat, gev, gok := got.GetEvent(dev)
			wv, wok := want.power[dev]
			if gok != wok || gv != wv || !gat.Equal(want.at[dev]) || gev != want.event[dev] {
				t.Fatalf("seed %d step %d: GetEvent(%s) = %v %v %d %v, reference %v %v %d %v",
					seed, i, dev, gv, gat, gev, gok, wv, want.at[dev], want.event[dev], wok)
			}
			if v, at, ok := got.Get(dev); ok != gok || v != gv || !at.Equal(gat) {
				t.Fatalf("seed %d step %d: Get(%s) = %v %v %v disagrees with GetEvent", seed, i, dev, v, at, ok)
			}
			gst, gok := got.GetStamps(dev)
			if wst, wok := want.stamps[dev]; gok != wok || gst != wst {
				t.Fatalf("seed %d step %d: GetStamps(%s) = %+v %v, reference %+v %v", seed, i, dev, gst, gok, wst, wok)
			}
			gold, gok := got.Oldest(now)
			if wold, wok := want.Oldest(now); gok != wok || gold != wold {
				t.Fatalf("seed %d step %d: Oldest = %v %v, reference %v %v", seed, i, gold, gok, wold, wok)
			}
			if got.Count() != len(want.power) {
				t.Fatalf("seed %d step %d: Count = %d, reference %d", seed, i, got.Count(), len(want.power))
			}
			if i%50 == 0 {
				if snap := got.Snapshot(); !reflect.DeepEqual(snap, want.power) {
					t.Fatalf("seed %d step %d: Snapshot = %v, reference %v", seed, i, snap, want.power)
				}
				if got.SnapshotInto(into); !reflect.DeepEqual(into, want.power) {
					t.Fatalf("seed %d step %d: SnapshotInto = %v, reference %v", seed, i, into, want.power)
				}
			}
		}
		if g, w := recGot.Snapshot(), recWant.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: the views emitted different sample-arrive streams (%d vs %d events)", seed, len(g), len(w))
		}
	}
}
