package telemetry

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// rackPoll is one poll of an emulation-sized room: 275 racks in a fixed
// order, measured and published at at.
func rackPoll(at time.Time) []Sample {
	batch := make([]Sample, 275)
	for i := range batch {
		batch[i] = Sample{
			Device: fmt.Sprintf("rack-%03d", i), Power: power.Watts(8000 + i), Valid: true,
			MeasuredAt: at, PublishedAt: at,
		}
	}
	return batch
}

// BenchmarkPublishRecvBatch is the transport leg of fleet ingest, one op a
// poll: a rack batch into a shard-sized queue and out again through a
// shard-sized buffer.
func BenchmarkPublishRecvBatch(b *testing.B) {
	br := NewBroker("bench")
	sub := br.Subscribe(TopicRack, 1024)
	batch := rackPoll(t0())
	buf := make([]Sample, 256)
	b.ReportAllocs()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer() // the first poll grew the queue
		}
		br.PublishBatch(TopicRack, batch)
		for sub.RecvBatch(buf) == len(buf) {
		}
	}
	if sub.Dropped() != 0 {
		b.Fatalf("dropped %d samples from a queue that was drained every poll", sub.Dropped())
	}
}

// BenchmarkUpdateBatch is the view leg, one op a poll: a rack batch, newer
// than the last, installed in one pass — and on a recorded view, as the
// instrumented emulator's is, its 275 sample-arrive events emitted as one
// recorder batch and their seqs bound to their slots.
func BenchmarkUpdateBatch(b *testing.B) {
	for _, recorded := range []bool{false, true} {
		name := "plain"
		if recorded {
			name = "recorded"
		}
		b.Run(name, func(b *testing.B) {
			view := NewLatestPower()
			if recorded {
				view.SetRecorder(recorder.New(1<<12), "rack-view")
			}
			batch := rackPoll(t0())
			b.ReportAllocs()
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer() // the first poll gave every device its slot
				}
				at := t0().Add(time.Duration(i+2) * time.Second)
				for j := range batch {
					batch[j].MeasuredAt = at
				}
				view.UpdateBatch(batch, at)
			}
			_, at, seq, _ := view.GetEvent(batch[274].Device)
			if !at.Equal(batch[274].MeasuredAt) || (seq != 0) != recorded {
				b.Fatalf("the last poll was not installed: view at %v by event %d, poll at %v", at, seq, batch[274].MeasuredAt)
			}
		})
	}
}

// BenchmarkMeterPoll is the meter leg of a room's rack poll, one op a poll:
// 275 rack meters at the emulator's 1 % noise, each read once. It reports
// ns/read and what building a meter, its name and its source allocates
// (B/meter), outside the timer.
func BenchmarkMeterPoll(b *testing.B) {
	const racks = 275
	truth := make([]power.Watts, racks)
	meters := make([]*SimMeter, racks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range meters {
		truth[i] = power.Watts(8000 + i)
		meters[i] = NewSimMeter(fmt.Sprintf("rack-%03d", i),
			func() power.Watts { return truth[i] },
			SimMeterConfig{Noise: 0.01, Seed: 1000 + int64(i)})
	}
	runtime.ReadMemStats(&after)
	at := t0()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range meters {
			if _, err := m.Read(at); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*racks), "ns/read")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/racks, "B/meter")
}
