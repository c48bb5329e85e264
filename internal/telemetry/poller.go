package telemetry

import (
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// Target is one device a poller polls: its logical (consensus) meter and
// the topic its samples are published on.
type Target struct {
	Meter *LogicalMeter
	Topic string
}

// Poller periodically reads a set of logical meters and publishes the
// samples to every configured broker. Flex runs two or more pollers on
// separate fault domains, each publishing the same devices; the subscriber's
// view keeps the newest reading of each (paper Figure 7).
type Poller struct {
	Name    string
	Clock   clock.Clock
	Brokers []*Broker
	Targets []Target
	// Metrics, when non-nil, receives poll/publish/invalid-read counts.
	// Set it before the first poll.
	Metrics *Metrics
	// Recorder, when non-nil, emits a sample-publish event per reading;
	// the event's sequence rides on Sample.Event so downstream consumers
	// can cite it as their Cause. Set it before the first poll.
	Recorder *recorder.Recorder

	mu   sync.Mutex
	down bool
	// batch is the reusable per-round publish buffer; PollOnce flushes it
	// to every broker with one PublishBatch per topic run, so steady-state
	// rounds reuse the same backing array.
	batch []Sample
}

// NewPoller constructs a poller. Its owner calls PollOnce on its own
// cadence (the paper polls UPSes every 1.5 s and racks every 2 s).
func NewPoller(name string, clk clock.Clock, brokers []*Broker, targets []Target) *Poller {
	return &Poller{
		Name:    name,
		Clock:   clk,
		Brokers: brokers,
		Targets: targets,
	}
}

// PollOnce reads every target once and publishes the samples, batched:
// consecutive targets on the same topic accumulate into one buffer that
// is handed to every broker with a single PublishBatch call — one lock
// acquisition per broker per topic run instead of one per device.
func (p *Poller) PollOnce() {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	if p.Metrics != nil {
		p.Metrics.Polls.Inc()
	}
	now := p.Clock.Now()
	p.batch = p.batch[:0]
	topic := ""
	flush := func() {
		if len(p.batch) == 0 {
			return
		}
		// Stamp the batch at the moment it enters the brokers; the gap
		// back to MeasuredAt is the "sample" stage of the latency
		// waterfall (meter read + consensus + batching).
		StampPublished(p.batch, p.Clock.Now())
		for _, b := range p.Brokers {
			b.PublishBatch(topic, p.batch)
			if p.Metrics != nil {
				p.Metrics.SamplesPublished.Add(uint64(len(p.batch)))
			}
		}
		p.batch = p.batch[:0]
	}
	for _, t := range p.Targets {
		if t.Topic != topic {
			flush()
			topic = t.Topic
		}
		v, err := t.Meter.Read(now)
		if p.Metrics != nil && err != nil {
			p.Metrics.InvalidReads.Inc()
		}
		s := Sample{
			Device:     t.Meter.Device,
			Power:      v,
			Valid:      err == nil,
			MeasuredAt: now,
		}
		if p.Recorder != nil {
			valid := int64(0)
			if s.Valid {
				valid = 1
			}
			s.Event = p.Recorder.Emit(recorder.Event{
				Type:    recorder.TypeSamplePublish,
				Time:    now,
				Actor:   p.Name,
				Subject: s.Device,
				Value:   float64(s.Power),
				Aux:     valid,
			})
		}
		p.batch = append(p.batch, s)
	}
	flush()
}

// SetDown injects or clears a poller outage.
func (p *Poller) SetDown(down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = down
}

// Stamps is the per-device ingest timeline retained by LatestPower: the
// birth timestamps of the sample currently installed in the view. Zero
// fields mean the corresponding stage was never stamped (e.g. a producer
// that predates stamping, or a view fed directly without a broker). The
// view keeps each stamp as a UnixNano and rebuilds it on read, so a stamp
// read back is in UTC and carries no monotonic clock reading: on a live
// clock, durations between stamps come from the wall clock, and an instant
// exactly at the Unix epoch reads back as zero.
type Stamps struct {
	MeasuredAt  time.Time
	PublishedAt time.Time
	DequeuedAt  time.Time
}

// LatestPower is a thread-safe view of the most recent valid power per
// device — the controller's power snapshot (Algorithm 1 lines 2–3). Keeping
// only a measurement newer than the installed one is the one dedupe of the
// redundant poller × broker paths. Devices are never removed, so each
// owns one slot of a dense slice for the life of the view: an update is
// one map lookup, and the readers that only iterate scan the slice.
type LatestPower struct {
	mu    sync.Mutex
	index map[string]int // device → slot
	slots []reading
	// rec is the recording state of a view with a recorder, nil without.
	rec *recorded
}

// recorded is what a recorded view keeps beside its slots: the recorder,
// the role its sample-arrive events name as their actor, the names the
// recorder interned for them — the role once, at SetRecorder, and each
// slot's device the first time a batch installs the slot — and
// updateBatchRecorded's scratch between calls. SetRecorder makes it; only
// names and the scratch change after, under the view's mutex.
type recorded struct {
	rec   *recorder.Recorder
	role  string
	actor recorder.Name
	// names is each slot's device in the recorder's name table, 0 for a
	// slot no batch has installed since SetRecorder.
	names    []recorder.Name
	arrivals []arrival
	entries  []recorder.Entry
}

// reading is one device's installed sample. Its stamps are Stamps' fields
// as nanos; measured orders updates.
type reading struct {
	device                        string
	power                         power.Watts
	measured, published, dequeued int64
	event                         uint64
}

// nanos is t as a reading keeps it: t.UnixNano(), and 0 for the zero Time.
func nanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// stamp is the instant nanos kept as ns, in UTC: the zero Time for 0.
func stamp(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// NewLatestPower returns an empty view.
func NewLatestPower() *LatestPower {
	return &LatestPower{index: make(map[string]int)}
}

// SetRecorder makes every accepted sample emit a sample-arrive event
// under the given role ("ups-view", "rack-view"); the event sequence is
// retained per device so readers (GetEvent) can cite the arrival as the
// Cause of decisions made from it. A nil rec leaves the view unrecorded.
// Set it before updates begin.
func (l *LatestPower) SetRecorder(rec *recorder.Recorder, role string) {
	var v *recorded
	if rec != nil {
		v = &recorded{rec: rec, role: role, actor: rec.Intern(role)}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rec = v
}

// Update installs s and reports whether it went in: it did when it is valid
// and measured after what its device's slot holds. An invalid reading, or
// another path's copy of a measurement already installed, is refused. It is
// for a sample that never crossed a queue, so the reading keeps no dequeue
// instant; a consumer that drained s from one calls UpdateDequeued.
//
//flex:hotpath
func (l *LatestPower) Update(s Sample) bool {
	return l.UpdateDequeued(s, time.Time{})
}

// UpdateDequeued is Update for a sample a consumer pulled out of its ingest
// queue at dequeuedAt, the instant the installed reading keeps as its
// Stamps.DequeuedAt.
//
//flex:hotpath
func (l *LatestPower) UpdateDequeued(s Sample, dequeuedAt time.Time) bool {
	if !s.Valid {
		return false
	}
	l.mu.Lock()
	i, known := l.index[s.Device]
	if !known {
		i = l.addSlot(s.Device)
	}
	installed := l.install(&s, i, !known, nanos(dequeuedAt))
	v := l.rec
	l.mu.Unlock()
	if !installed || v == nil {
		return installed
	}
	// Emit outside the mutex (eventcheck), then bind the arrival seq to
	// the device — unless an even newer sample won the race meanwhile.
	seq := v.rec.Emit(arriveEvent(v.role, &s))
	l.mu.Lock()
	if r := &l.slots[i]; r.measured == nanos(s.MeasuredAt) {
		r.event = seq
	}
	l.mu.Unlock()
	return true
}

// arriveEvent is the sample-arrive event of s going into the view of role.
func arriveEvent(role string, s *Sample) recorder.Event {
	return recorder.Event{
		Type:    recorder.TypeSampleArrive,
		Time:    s.MeasuredAt,
		Actor:   role,
		Subject: s.Device,
		Value:   float64(s.Power),
		Cause:   s.Event,
	}
}

// UpdateBatch installs batch as a loop of UpdateDequeued would, every
// sample with the instant dequeuedAt its consumer drained the batch at (zero
// for a batch that never crossed a queue), under one lock acquisition. A
// poll delivers its devices in the same order every round, so each sample
// first tries the slot after the previous sample's — a string compare that
// hits on pointer equality — and only then the map. The slots
// grow at most once a batch (slotOf). A recorded view goes through
// updateBatchRecorded, which emits the same sample-arrive events in the same
// order, as one recorder batch between two lock holds per batch.
//
//flex:hotpath
func (l *LatestPower) UpdateBatch(batch []Sample, dequeuedAt time.Time) {
	l.mu.Lock()
	if l.rec != nil {
		l.mu.Unlock()
		l.updateBatchRecorded(batch, dequeuedAt)
		return
	}
	next, filled, dequeued := 0, len(l.slots), nanos(dequeuedAt)
	for k := range batch {
		s := &batch[k]
		if !s.Valid {
			continue
		}
		i := next
		if next >= len(l.slots) || l.slots[next].device != s.Device {
			i = l.slotOf(batch, k)
		}
		fresh := i == filled
		if fresh {
			filled++
		}
		l.install(s, i, fresh, dequeued)
		next = i + 1
	}
	l.mu.Unlock()
}

// updateBatchRecorded is UpdateBatch on a view with a recorder: install the
// whole batch under one lock hold, emit the arrivals in batch order with the
// lock released (eventcheck) as one recorder batch, then bind their seqs
// under a second hold — each unless a newer sample has won its slot
// meanwhile, be it a later one of this batch or another writer's. A slot's
// device is interned the first time a batch installs it, between the two
// holds. The batch is only read; the scratch is the view's, taken out of it
// for the duration so that a concurrent batch finds none and makes its own.
//
//flex:hotpath
func (l *LatestPower) updateBatchRecorded(batch []Sample, dequeuedAt time.Time) {
	l.mu.Lock()
	v := l.rec
	arrivals, entries := v.arrivals, v.entries
	v.arrivals, v.entries = nil, nil
	if cap(arrivals) < len(batch) {
		arrivals, entries = newArrivals(len(batch))
	}
	arrivals, entries = arrivals[:len(batch)], entries[:len(batch)]
	n, next, filled, dequeued := 0, 0, len(l.slots), nanos(dequeuedAt)
	unnamed := false
	for k := range batch {
		s := &batch[k]
		if !s.Valid {
			continue
		}
		i := next
		if next >= len(l.slots) || l.slots[next].device != s.Device {
			i = l.slotOf(batch, k)
		}
		fresh := i == filled
		if fresh {
			filled++
		}
		if l.install(s, i, fresh, dequeued) {
			name := recorder.Name(0)
			if i < len(v.names) {
				name = v.names[i]
			}
			unnamed = unnamed || name == 0
			arrivals[n] = arrival{sample: k, slot: i}
			entries[n] = recorder.Entry{Time: s.MeasuredAt, Subject: name, Value: float64(s.Power), Cause: s.Event}
			n++
		}
		next = i + 1
	}
	l.mu.Unlock()
	arrivals, entries = arrivals[:n], entries[:n]
	if unnamed {
		for k, a := range arrivals {
			if entries[k].Subject == 0 {
				entries[k].Subject = v.rec.Intern(batch[a.sample].Device)
			}
		}
	}
	first := v.rec.EmitBatch(recorder.TypeSampleArrive, v.actor, entries)
	l.mu.Lock()
	for k, a := range arrivals {
		if r := &l.slots[a.slot]; r.measured == nanos(batch[a.sample].MeasuredAt) {
			r.event = first + uint64(k)
		}
	}
	if unnamed {
		v.names = growNames(v.names, len(l.slots))
		for k, a := range arrivals {
			v.names[a.slot] = entries[k].Subject
		}
	}
	v.arrivals, v.entries = arrivals, entries
	l.mu.Unlock()
}

// arrival is one sample of a batch that went into the view: where it sits in
// the batch and the slot it took.
type arrival struct {
	sample, slot int
}

// newArrivals is the scratch for a batch of n samples: once per view, unless
// batches grow or overlap.
//
//flex:coldpath
func newArrivals(n int) ([]arrival, []recorder.Entry) {
	return make([]arrival, n), make([]recorder.Entry, n)
}

// growNames extends names to n slots, the new ones not interned yet.
//
//flex:coldpath
func growNames(names []recorder.Name, n int) []recorder.Name {
	if len(names) >= n {
		return names
	}
	return append(names, make([]recorder.Name, n-len(names))...)
}

// install puts valid sample s, dequeued at the nanos dequeued, into slot i
// unless the slot holds a measurement at least as new, and reports whether
// s went in. A fresh slot — one made for s that no sample has filled yet —
// takes s whatever its time. l.mu is held.
func (l *LatestPower) install(s *Sample, i int, fresh bool, dequeued int64) bool {
	r := &l.slots[i]
	measured := nanos(s.MeasuredAt)
	if !fresh && measured <= r.measured {
		return false
	}
	r.power = s.Power
	r.measured, r.published, r.dequeued = measured, nanos(s.PublishedAt), dequeued
	return true
}

// slotOf finds the slot of batch[k]'s device through the map. A device
// reporting for the first time gets the next slot, and so does every other
// new device of batch[k:], numbered in the order they first appear there:
// the slots then grow once, to exactly what the batch adds, where a view
// fed a poll in batches smaller than the poll would otherwise double to up
// to twice its devices. Slots made this way are filled by the rest of the
// batch, in slot order. l.mu is held.
func (l *LatestPower) slotOf(batch []Sample, k int) int {
	i, ok := l.index[batch[k].Device]
	if !ok {
		l.addSlots(batch[k:])
		i = l.index[batch[k].Device]
	}
	return i
}

// addSlot gives a device reporting for the first time through Update the
// next slot, growing the slots as append does: one device at a time, exact
// growth would copy them all on every new device.
//
//flex:coldpath
func (l *LatestPower) addSlot(device string) int {
	i := len(l.slots)
	l.index[device] = i
	l.slots = append(l.slots, reading{device: device})
	return i
}

// addSlots is slotOf's growth. An empty view's index is made for the whole
// batch.
//
//flex:coldpath
func (l *LatestPower) addSlots(batch []Sample) {
	if len(l.index) == 0 {
		l.index = make(map[string]int, len(batch))
	}
	n := len(l.slots)
	for k := range batch {
		if s := &batch[k]; s.Valid {
			if _, ok := l.index[s.Device]; !ok {
				l.index[s.Device] = n
				n++
			}
		}
	}
	if n > cap(l.slots) {
		l.slots = append(make([]reading, 0, n), l.slots...)
	}
	for k := range batch {
		if s := &batch[k]; s.Valid && l.index[s.Device] == len(l.slots) {
			l.slots = append(l.slots, reading{device: s.Device})
		}
	}
}

// Get returns the last power for device and whether one exists.
//
//flex:hotpath
func (l *LatestPower) Get(device string) (power.Watts, time.Time, bool) {
	v, at, _, ok := l.GetEvent(device)
	return v, at, ok
}

// GetEvent is Get plus the flight-recorder sequence of the sample-arrive
// event that installed the reading (0 when the view is unrecorded).
//
//flex:hotpath
func (l *LatestPower) GetEvent(device string) (power.Watts, time.Time, uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.index[device]
	if !ok {
		return 0, time.Time{}, 0, false
	}
	r := &l.slots[i]
	return r.power, stamp(r.measured), r.event, true
}

// GetStamps returns the ingest timeline of device's installed sample —
// the birth stamps the latency-attribution waterfall opens with.
// ok=false when the device has never reported.
func (l *LatestPower) GetStamps(device string) (Stamps, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.index[device]
	if !ok {
		return Stamps{}, false
	}
	r := &l.slots[i]
	return Stamps{MeasuredAt: stamp(r.measured), PublishedAt: stamp(r.published), DequeuedAt: stamp(r.dequeued)}, true
}

// Snapshot copies the current view into a fresh map.
func (l *LatestPower) Snapshot() map[string]power.Watts {
	out := make(map[string]power.Watts, l.Count())
	l.SnapshotInto(out)
	return out
}

// SnapshotInto refills dst with the current view, so a caller that reads
// the whole view every round (the auditor's what-if probe) keeps one map
// instead of building a fresh one. Whatever dst held before is dropped.
//
//flex:hotpath
func (l *LatestPower) SnapshotInto(dst map[string]power.Watts) {
	clear(dst)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.slots {
		dst[l.slots[i].device] = l.slots[i].power
	}
}

// Oldest returns the staleness of the view's least-fresh device at time
// now — the quantity the telemetry-freshness SLO watches: one stuck
// device is one stuck failover estimate. ok=false when the view is
// empty.
//
//flex:hotpath
func (l *LatestPower) Oldest(now time.Time) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.slots) == 0 {
		return 0, false
	}
	// The stalest device is the one measured earliest.
	earliest := l.slots[0].measured
	for i := 1; i < len(l.slots); i++ {
		earliest = min(earliest, l.slots[i].measured)
	}
	return now.Sub(stamp(earliest)), true
}

// Count reports how many devices have reported at least once.
func (l *LatestPower) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.slots)
}
