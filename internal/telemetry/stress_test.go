package telemetry

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// TestBrokerConcurrencyStress hammers one broker with concurrent
// publishers, readers of a fixed set of subscribers, and fault injection;
// run under -race this guards the locking discipline.
func TestBrokerConcurrencyStress(t *testing.T) {
	b := NewBroker("stress")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// loop runs body in a goroutine of its own until stop closes.
	loop := func(body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body()
			}
		}()
	}

	// 4 publishers.
	for p := 0; p < 4; p++ {
		i := 0
		loop(func() {
			i++
			b.PublishBatch(TopicUPS, []Sample{{
				Device: "UPS-1", Power: power.Watts(i), Valid: true,
				MeasuredAt: time.Unix(int64(i), int64(p)),
			}})
		})
	}
	// 4 subscribers, each read one sample at a time by a reader of its own.
	for s := 0; s < 4; s++ {
		sub := b.Subscribe(TopicUPS, 8)
		loop(func() {
			takeOne(sub)
			_ = sub.Dropped()
		})
	}
	// A batch publisher against a subscriber whose three-slot ring wraps on
	// every other batch, drained in place while the publisher pushes.
	batch := []Sample{{Device: "UPS-1", Valid: true}, {Device: "UPS-2", Valid: true}}
	loop(func() { b.PublishBatch(TopicUPS, batch) })
	wrapping := b.Subscribe(TopicUPS, 3)
	loop(func() { wrapping.Drain(func([]Sample) {}) })
	// Fault injector flapping the broker.
	down := false
	loop(func() {
		down = !down
		b.SetDown(down)
		time.Sleep(time.Millisecond)
	})

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestLatestPowerConcurrencyStress exercises the view under concurrent
// updates and reads.
func TestLatestPowerConcurrencyStress(t *testing.T) {
	lp := NewLatestPower()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := Sample{Device: "d", Power: power.Watts(i), Valid: true,
					MeasuredAt: time.Unix(int64(i), int64(w))}
				lp.Update(s)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lp.Get("d")
				lp.Snapshot()
				lp.Age("d", time.Now())
			}
		}()
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestRecordedViewBatchAgainstUpdateStress runs, on one recorded view, a
// goroutine installing whole polls with UpdateBatch against one overtaking
// the same devices with later single samples. An arrival's seq is bound in a
// second lock hold, after its event is out, unless a newer sample has won
// the slot meanwhile: so once both are done, every device's GetEvent seq
// must name the sample-arrive event of exactly the measurement installed.
// UpdateBatch reads its batch and never writes it.
func TestRecordedViewBatchAgainstUpdateStress(t *testing.T) {
	const devices, rounds = 64, 300
	rec := recorder.New(1 << 17)
	view := NewLatestPower()
	view.SetRecorder(rec, "rack-view")
	names := make([]string, devices)
	for d := range names {
		names[d] = fmt.Sprintf("rack-%02d", d)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		batch, before := make([]Sample, devices), make([]Sample, devices)
		for r := 0; r < rounds; r++ {
			at := t0().Add(time.Duration(r) * time.Millisecond)
			for d := range batch {
				batch[d] = Sample{
					Device: names[d], Power: power.Watts(r), Valid: d%7 != r%7,
					MeasuredAt: at, PublishedAt: at, Event: uint64(r*devices + d),
				}
			}
			copy(before, batch)
			view.UpdateBatch(batch, at)
			if !slices.Equal(batch, before) {
				t.Errorf("round %d: UpdateBatch wrote to its caller's batch", r)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			at := t0().Add(time.Duration(r)*time.Millisecond + 500*time.Microsecond)
			for d := devices - 1; d >= 0; d-- {
				if r == rounds-1 && d%2 == 1 {
					continue // the odd devices' last word is the batch's
				}
				view.Update(Sample{Device: names[d], Power: power.Watts(-r), Valid: true, MeasuredAt: at})
			}
		}
	}()
	wg.Wait()

	if rec.Overwritten() > 0 {
		t.Fatal("the recorder wrapped; arrivals below would be missing")
	}
	arrivals := map[uint64]recorder.Event{}
	for _, e := range rec.Snapshot() {
		if e.Type == recorder.TypeSampleArrive {
			arrivals[e.Seq] = e
		}
	}
	fromBatch := 0
	for _, dev := range names {
		_, at, seq, ok := view.GetEvent(dev)
		e, found := arrivals[seq]
		if !ok || !found || e.Subject != dev || !e.Time.Equal(at) {
			t.Errorf("%s: installed at %v by seq %d (reported %v); that event is %+v (found %v)", dev, at, seq, ok, e, found)
		}
		if e.Value >= 0 && e.Cause != 0 {
			fromBatch++
		}
	}
	if fromBatch < devices/4 {
		t.Errorf("only %d of %d devices ended on a batch's sample; the bind after a batch went unchecked", fromBatch, devices)
	}
}
