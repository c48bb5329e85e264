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
	Brokers []SamplePublisher
	Targets []Target
	// Metrics, when non-nil, receives poll/publish/invalid-read counts.
	// Set it before the first poll (the pipeline wires it from
	// PipelineConfig.Obs).
	Metrics *Metrics
	// Recorder, when non-nil, emits a sample-publish event per reading;
	// the event's sequence rides on Sample.Event so downstream consumers
	// can cite it as their Cause. Set it before the first poll.
	Recorder *recorder.Recorder

	mu    sync.Mutex
	down  bool
	polls int
	// batch is the reusable per-round publish buffer; PollOnce flushes it
	// to every broker with one PublishBatch per topic run, so steady-state
	// rounds reuse the same backing array.
	batch []Sample
}

// NewPoller constructs a poller. Its owner calls PollOnce on its own
// cadence (the paper polls UPSes every 1.5 s and racks every 2 s).
func NewPoller(name string, clk clock.Clock, brokers []SamplePublisher, targets []Target) *Poller {
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
	p.polls++
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
// that predates stamping, or a view fed directly without a broker).
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
	rec   *recorder.Recorder
	role  string
	// arrivals is updateBatchRecorded's scratch between calls.
	arrivals []arrival
}

// reading is one device's installed sample.
type reading struct {
	device string
	power  power.Watts
	stamps Stamps // stamps.MeasuredAt orders updates
	event  uint64
}

// NewLatestPower returns an empty view.
func NewLatestPower() *LatestPower {
	return &LatestPower{index: make(map[string]int)}
}

// SetRecorder makes every accepted sample emit a sample-arrive event
// under the given role ("ups-view", "rack-view"); the event sequence is
// retained per device so readers (GetEvent) can cite the arrival as the
// Cause of decisions made from it. Set it before updates begin.
func (l *LatestPower) SetRecorder(rec *recorder.Recorder, role string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rec = rec
	l.role = role
}

// Update installs s and reports whether it went in: it did when it is valid
// and measured after what its device's slot holds. An invalid reading, or
// another path's copy of a measurement already installed, is refused.
//
//flex:hotpath
func (l *LatestPower) Update(s Sample) bool {
	if !s.Valid {
		return false
	}
	l.mu.Lock()
	i, known := l.index[s.Device]
	if !known {
		i = l.addSlot(s.Device)
	}
	installed := l.install(&s, i, !known)
	rec, role := l.rec, l.role
	l.mu.Unlock()
	if !installed || rec == nil {
		return installed
	}
	// Emit outside the mutex (eventcheck), then bind the arrival seq to
	// the device — unless an even newer sample won the race meanwhile.
	seq := rec.Emit(arriveEvent(role, &s))
	l.mu.Lock()
	if r := &l.slots[i]; r.stamps.MeasuredAt.Equal(s.MeasuredAt) {
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

// UpdateBatch installs batch as a loop of Update would, under one lock
// acquisition. A poll delivers its devices in the same order every round, so
// each sample first tries the slot after the previous sample's — a string
// compare that hits on pointer equality — and only then the map. The slots
// grow at most once a batch (slotOf). A recorded view goes through
// updateBatchRecorded, which emits the same sample-arrive events in the same
// order between two lock holds per batch, not per sample.
//
//flex:hotpath
func (l *LatestPower) UpdateBatch(batch []Sample) {
	l.mu.Lock()
	if l.rec != nil {
		l.mu.Unlock()
		l.updateBatchRecorded(batch)
		return
	}
	next, filled := 0, len(l.slots)
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
		l.install(s, i, fresh)
		next = i + 1
	}
	l.mu.Unlock()
}

// arrival is one sample of a batch that went into the view: where it sits in
// the batch, the slot it took, and the seq of its sample-arrive event.
type arrival struct {
	sample, slot int
	seq          uint64
}

// updateBatchRecorded is UpdateBatch on a view with a recorder: install the
// whole batch under one lock hold, emit the arrivals in batch order with the
// lock released (eventcheck), then bind their seqs under a second hold — each
// unless a newer sample has won its slot meanwhile, be it a later one of this
// batch or another writer's. The batch is only read; the arrivals are the
// view's scratch, taken out of it for the duration so that a concurrent batch
// finds none and makes its own.
//
//flex:hotpath
func (l *LatestPower) updateBatchRecorded(batch []Sample) {
	l.mu.Lock()
	rec, role := l.rec, l.role
	arrivals := l.arrivals
	l.arrivals = nil
	if cap(arrivals) < len(batch) {
		arrivals = newArrivals(len(batch))
	}
	arrivals = arrivals[:len(batch)]
	n, next, filled := 0, 0, len(l.slots)
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
		if l.install(s, i, fresh) {
			arrivals[n] = arrival{sample: k, slot: i}
			n++
		}
		next = i + 1
	}
	l.mu.Unlock()
	arrivals = arrivals[:n]
	for k := range arrivals {
		a := &arrivals[k]
		a.seq = rec.Emit(arriveEvent(role, &batch[a.sample]))
	}
	l.mu.Lock()
	for _, a := range arrivals {
		if r := &l.slots[a.slot]; r.stamps.MeasuredAt.Equal(batch[a.sample].MeasuredAt) {
			r.event = a.seq
		}
	}
	l.arrivals = arrivals
	l.mu.Unlock()
}

// newArrivals is the scratch for a batch of n samples: once per view, unless
// batches grow or overlap.
//
//flex:coldpath
func newArrivals(n int) []arrival { return make([]arrival, n) }

// install puts valid sample s into slot i unless the slot holds a
// measurement at least as new, and reports whether s went in. A fresh slot
// — one made for s that no sample has filled yet — takes s whatever its
// time. l.mu is held.
func (l *LatestPower) install(s *Sample, i int, fresh bool) bool {
	if !fresh && !s.MeasuredAt.After(l.slots[i].stamps.MeasuredAt) {
		return false
	}
	r := &l.slots[i]
	r.power = s.Power
	r.stamps = Stamps{
		MeasuredAt:  s.MeasuredAt,
		PublishedAt: s.PublishedAt,
		DequeuedAt:  s.DequeuedAt,
	}
	return true
}

// slotOf finds the slot of batch[k]'s device through the map. A device
// reporting for the first time gets the next slot, and so does every other
// new device of batch[k:], numbered in the order they first appear there:
// the slots then grow once, to exactly what the batch adds, where a view
// fed a poll in buffer-sized batches (fleet.Shard) would otherwise double
// to up to twice its devices. Slots made this way are filled by the rest
// of the batch, in slot order. l.mu is held.
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
	return r.power, r.stamps.MeasuredAt, r.event, true
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
	return l.slots[i].stamps, true
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
	// The stalest device is the one measured earliest. A poll stamps all its
	// devices with one instant, so most slots hold the very value of
	// earliest: three words compared in line, where Before is a call.
	earliest := l.slots[0].stamps.MeasuredAt
	for i := 1; i < len(l.slots); i++ {
		if at := l.slots[i].stamps.MeasuredAt; at != earliest && at.Before(earliest) {
			earliest = at
		}
	}
	return now.Sub(earliest), true
}

// Count reports how many devices have reported at least once.
func (l *LatestPower) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.slots)
}
