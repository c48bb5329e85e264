package telemetry

import (
	"slices"
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
// view keeps the newest reading of each (paper Figure 7). A poller has one
// owner and takes no lock: the goroutine that steps its room calls PollOnce
// and injects its faults.
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
// is handed to every broker with a single PublishBatch call — one fan-out
// per broker per topic run instead of one per device.
func (p *Poller) PollOnce() {
	if p.down {
		return
	}
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
func (p *Poller) SetDown(down bool) { p.down = down }

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

// LatestPower is the view of the most recent valid power per device — the
// controller's power snapshot (Algorithm 1 lines 2–3). Keeping only a
// measurement newer than the installed one is the one dedupe of the
// redundant poller × broker paths. Devices are never removed, so each owns
// one slot of a dense slice for the life of the view: an update is one map
// lookup, and the readers that only iterate scan the slice.
//
// A view has one owner and takes no lock: the goroutine that steps its
// room. In emu.RunFleet a crew worker pumps a room's views within a phase,
// and the crew's barrier orders that after the serial ingest and before
// the serial step that reads them.
type LatestPower struct {
	index map[string]int // device → slot
	slots []reading
	// rec is the recording state of a view with a recorder, nil without.
	rec *recorded
}

// recorded is what a recorded view keeps beside its slots: the recorder,
// the name it interned for the view's role at SetRecorder, each slot's
// device as interned the first time the slot filled (0 before), and
// update's scratch, presized to the longest batch yet.
type recorded struct {
	rec     *recorder.Recorder
	actor   recorder.Name
	names   []recorder.Name // one per slot
	arrived []int           // the slot of each entry
	entries []recorder.Entry
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

// NewLatestPower returns an empty view. Its index is made with its first
// slots, sized for the batch that brings them.
func NewLatestPower() *LatestPower {
	return &LatestPower{}
}

// SetRecorder makes every accepted sample emit a sample-arrive event
// under the given role ("ups-view", "rack-view"); the event sequence is
// retained per device so readers (GetEvent) can cite the arrival as the
// Cause of decisions made from it. A nil rec leaves the view unrecorded.
// Set it before updates begin.
func (l *LatestPower) SetRecorder(rec *recorder.Recorder, role string) {
	l.rec = nil
	if rec != nil {
		l.rec = &recorded{rec: rec, actor: rec.Intern(role), names: make([]recorder.Name, len(l.slots))}
	}
}

// Update installs s and reports whether it went in: it did when it is valid
// and measured after what its device's slot holds. An invalid reading, or
// another path's copy of a measurement already installed, is refused. It is
// for a sample that never crossed a queue, so the reading keeps no dequeue
// instant.
//
//flex:hotpath
func (l *LatestPower) Update(s Sample) bool {
	one := [1]Sample{s}
	return l.update(one[:], 0) == 1
}

// UpdateBatch installs batch as a loop of Update would, every sample with
// the instant dequeuedAt its consumer drained the batch at (zero for a batch
// that never crossed a queue). The batch is only read.
//
//flex:hotpath
func (l *LatestPower) UpdateBatch(batch []Sample, dequeuedAt time.Time) {
	l.update(batch, nanos(dequeuedAt))
}

// update is the one install loop, and returns how many samples went in. A
// poll delivers its devices in the same order every round, so each sample
// first tries the slot after the previous sample's — a string compare that
// hits on pointer equality — and only then the map; the slots grow at most
// once a batch (slotOf). A recorded view collects an entry per sample that
// went in, naming its device as the slot interned it, emits them as one
// recorder batch in batch order, and binds entry k's seq, first+k, to its
// slot: a later sample of the same device in the batch binds over an
// earlier one, as it installed over it.
//
//flex:hotpath
func (l *LatestPower) update(batch []Sample, dequeued int64) int {
	v := l.rec
	if v != nil && len(v.entries) < len(batch) {
		v.presize(len(batch))
	}
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
		next = i + 1
		// A fresh slot — one made for s that no sample has filled yet —
		// takes s whatever its time; any other takes only a newer one.
		fresh := i == filled
		if fresh {
			filled++
		}
		r, measured := &l.slots[i], nanos(s.MeasuredAt)
		if !fresh && measured <= r.measured {
			continue
		}
		r.power = s.Power
		r.measured, r.published, r.dequeued = measured, nanos(s.PublishedAt), dequeued
		if v != nil {
			if v.names[i] == 0 {
				v.names[i] = v.rec.Intern(s.Device)
			}
			v.arrived[n] = i
			v.entries[n] = recorder.Entry{Time: s.MeasuredAt, Subject: v.names[i], Value: float64(s.Power), Cause: s.Event}
		}
		n++
	}
	if v != nil && n > 0 {
		first := v.rec.EmitBatch(recorder.TypeSampleArrive, v.actor, v.entries[:n])
		for k, i := range v.arrived[:n] {
			l.slots[i].event = first + uint64(k)
		}
	}
	return n
}

// presize makes update's scratch exactly n entries long: once per view
// unless its batches grow.
//
//flex:coldpath
func (v *recorded) presize(n int) {
	v.arrived, v.entries = make([]int, n), make([]recorder.Entry, n)
}

// slotOf finds the slot of batch[k]'s device through the map. A device
// reporting for the first time gets the next slot, and so does every other
// new device of batch[k:], numbered in the order they first appear there.
// Slots made this way are filled by the rest of the batch, in slot order.
func (l *LatestPower) slotOf(batch []Sample, k int) int {
	i, ok := l.index[batch[k].Device]
	if !ok {
		l.addSlots(batch[k:])
		i = l.index[batch[k].Device]
	}
	return i
}

// addSlots is slotOf's growth. The slots grow once, to exactly what the
// batch adds, where a view fed a poll in batches smaller than the poll would
// otherwise double to up to twice its devices; one device joining grows
// them as append does, since exact growth would copy them all on every new
// device fed one at a time. An empty view's index is made for the whole
// batch, and a recorded view's names grow with the slots.
//
//flex:coldpath
func (l *LatestPower) addSlots(batch []Sample) {
	if l.index == nil {
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
	switch {
	case n <= cap(l.slots):
	case n == len(l.slots)+1:
		l.slots = slices.Grow(l.slots, 1)
	default:
		l.slots = append(make([]reading, 0, n), l.slots...)
	}
	for k := range batch {
		if s := &batch[k]; s.Valid && l.index[s.Device] == len(l.slots) {
			l.slots = append(l.slots, reading{device: s.Device})
		}
	}
	if v := l.rec; v != nil {
		v.names = append(v.names, make([]recorder.Name, len(l.slots)-len(v.names))...)
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
func (l *LatestPower) Count() int { return len(l.slots) }
