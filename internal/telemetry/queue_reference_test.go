package telemetry

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/obs/recorder"
)

// referenceQueue is a Subscription's queue one sample at a time, as the
// buffered channel it was first written as behaved, kept as the reference
// the ring must match: a sample that finds depth samples queued drops the
// oldest first, and a receive takes from the front.
type referenceQueue struct {
	q       []Sample
	depth   int
	dropped int
}

func newReferenceQueue(depth int) *referenceQueue {
	return &referenceQueue{depth: max(depth, 1)}
}

// publish queues batch sample by sample and reports how many it evicted.
func (q *referenceQueue) publish(batch []Sample) (dropped int) {
	for _, s := range batch {
		if len(q.q) == q.depth {
			q.q = q.q[1:]
			q.dropped++
			dropped++
		}
		q.q = append(q.q, s)
	}
	return dropped
}

func (q *referenceQueue) recvBatch(buf []Sample) int {
	n := copy(buf, q.q)
	q.q = q.q[n:]
	return n
}

// referenceBroker is Broker.PublishBatch around referenceQueues on one
// topic: nothing on an empty batch or a downed broker, one BatchPublishes
// per delivered batch, one DroppedSamples per eviction, one sample-drop
// event per batch that evicted anything.
type referenceBroker struct {
	name           string
	down           bool
	subs           []*referenceQueue
	droppedSamples uint64
	batchPublishes uint64
	rec            *recorder.Recorder
}

func (b *referenceBroker) publishBatch(batch []Sample) {
	if len(batch) == 0 || b.down {
		return
	}
	dropped := 0
	for _, q := range b.subs {
		dropped += q.publish(batch)
	}
	b.droppedSamples += uint64(dropped)
	b.batchPublishes++
	if dropped > 0 {
		last := batch[len(batch)-1]
		b.rec.Emit(recorder.Event{
			Type: recorder.TypeSampleDrop, Time: last.MeasuredAt, Actor: b.name,
			Subject: last.Device, Cause: last.Event, Aux: int64(dropped),
		})
	}
}

// FuzzQueueMatchesReference is the differential test of the broker's
// subscriber queues against referenceQueue. The bytes choose one or two
// subscribers of depth 1…64 on one topic and a sequence of PublishBatch
// (0…3×depth samples), RecvBatch (a buffer of 1…2×depth), Drain (everything
// queued, in at most two non-empty runs) and SetDown; every delivered
// sample, every Dropped count, the DroppedSamples and BatchPublishes metrics
// and the sample-drop event stream must be the reference's.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 9, 4, 2, 0, 7, 4, 5, 0, 2, 4, 1}) // depth 4: batches larger than the queue
	f.Add([]byte{0, 3, 0, 0, 3, 4, 1, 0, 3, 4, 3})             // depth 4: a batch that wraps past the end
	f.Add([]byte{0, 7, 0, 0, 4, 4, 2, 0, 2, 0, 3, 4, 7})       // depth 8: growth while the queue is wrapped
	f.Add([]byte{1, 0, 63, 0, 3, 16, 200, 4, 0, 20, 1, 0, 190, 6, 1, 0, 5, 7, 0, 0, 5, 4, 9, 20, 99})
	for seed := int64(1); seed <= 6; seed++ {
		buf := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip("need a subscriber count and two depths")
		}
		const topic = "t"
		b := NewBroker("A")
		b.Metrics = NewMetrics(obs.NewRegistry())
		b.Recorder = recorder.New(1024)
		ref := &referenceBroker{name: "A", rec: recorder.New(1024)}
		depths := []int{1 + int(data[1])%64, 1 + int(data[2])%64}[:1+int(data[0])%2]
		subs := make([]*Subscription, len(depths))
		for i, d := range depths {
			subs[i] = b.Subscribe(topic, d)
			ref.subs = append(ref.subs, newReferenceQueue(d))
		}
		recv := func(step, i, size int) {
			got, want := make([]Sample, size), make([]Sample, size)
			n, m := subs[i].RecvBatch(got), ref.subs[i].recvBatch(want)
			if n != m || !reflect.DeepEqual(got[:n], want[:m]) {
				t.Fatalf("step %d: subscriber %d (depth %d) received %d samples %v, reference %d %v",
					step, i, depths[i], n, events(got[:n]), m, events(want[:m]))
			}
		}
		drain := func(step, i int) {
			got := make([]Sample, 0, len(ref.subs[i].q))
			runs := 0
			n := subs[i].Drain(func(run []Sample) {
				if len(run) == 0 {
					t.Fatalf("step %d: subscriber %d drained an empty run", step, i)
				}
				runs++
				got = append(got, run...)
			})
			want := make([]Sample, len(ref.subs[i].q))
			m := ref.subs[i].recvBatch(want)
			if n != m || runs > 2 || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: subscriber %d (depth %d) drained %d samples %v in %d runs, reference %d %v",
					step, i, depths[i], n, events(got), runs, m, events(want))
			}
		}
		seq := uint64(0)
		for step, ops := 0, data[3:]; len(ops) >= 2; step, ops = step+1, ops[2:] {
			i := int(ops[0]>>4) % len(subs)
			switch kind := ops[0] % 8; {
			case kind < 4:
				batch := make([]Sample, int(ops[1])%(3*depths[i]+1))
				for j := range batch {
					seq++
					batch[j] = Sample{
						Device: string(rune('a' + seq%5)), Valid: true, Event: 3 * seq,
						MeasuredAt: t0().Add(time.Duration(seq) * time.Second),
					}
				}
				b.PublishBatch(topic, batch)
				ref.publishBatch(batch)
			case kind == 4:
				recv(step, i, 1+int(ops[1])%(2*depths[i]))
			case kind == 5:
				drain(step, i)
			default:
				b.SetDown(ops[1]%2 == 1)
				ref.down = ops[1]%2 == 1
			}
			for i := range subs {
				if got, want := subs[i].Dropped(), ref.subs[i].dropped; got != want {
					t.Fatalf("step %d: subscriber %d (depth %d) dropped %d, reference %d", step, i, depths[i], got, want)
				}
			}
		}
		for i := range subs {
			recv(-1, i, 2*depths[i]) // what is still buffered
		}
		if got := b.Metrics.DroppedSamples.Value(); got != ref.droppedSamples {
			t.Fatalf("DroppedSamples = %d, reference %d", got, ref.droppedSamples)
		}
		if got := b.Metrics.BatchPublishes.Value(); got != ref.batchPublishes {
			t.Fatalf("BatchPublishes = %d, reference %d", got, ref.batchPublishes)
		}
		if got, want := b.Recorder.Snapshot(), ref.rec.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("sample-drop events %+v, reference %+v", got, want)
		}
	})
}

func events(samples []Sample) []uint64 {
	out := make([]uint64, len(samples))
	for i, s := range samples {
		out[i] = s.Event
	}
	return out
}
