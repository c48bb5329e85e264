package power

// PairLoad is the power drawn (or allocated) on each PDU-pair, indexed by
// PDUPairID. A PairLoad with fewer entries than the topology has pairs
// treats the missing pairs as unloaded.
type PairLoad []Watts

// NewPairLoad returns a zero PairLoad sized for topology t.
func NewPairLoad(t *Topology) PairLoad { return make(PairLoad, len(t.Pairs)) }

// Total returns the sum of all pair loads.
func (l PairLoad) Total() Watts {
	var sum Watts
	for _, w := range l {
		sum += w
	}
	return sum
}

// Clone returns a copy of l.
func (l PairLoad) Clone() PairLoad {
	c := make(PairLoad, len(l))
	copy(c, l)
	return c
}

// CapacityTolerance is the slack allowed when checking loads against
// rated capacities. Loads are MW-scale; rounding noise from the placement
// ILP (which works in MW) is far below this.
const CapacityTolerance Watts = 2

// at returns the load on pair p, treating out-of-range as zero.
func (l PairLoad) at(p PDUPairID) Watts {
	if int(p) >= len(l) {
		return 0
	}
	return l[p]
}

// UPSSet is a set of UPSes, bit u standing for UPSID u — the out-of-service
// set of a load-flow computation. Redundancy.Validate bounds a design to
// MaxUPSes so every UPSID fits.
type UPSSet uint64

// MaxUPSes is the largest number of UPSes a topology may have.
const MaxUPSes = 64

// SetOf returns the set holding the given UPSes.
func SetOf(us ...UPSID) UPSSet {
	var s UPSSet
	for _, u := range us {
		s |= 1 << uint(u)
	}
	return s
}

// Has reports whether u is in the set.
func (s UPSSet) Has(u UPSID) bool { return s&(1<<uint(u)) != 0 }

// LoadFlow computes the load on every UPS when the UPSes in out are out of
// service: every PDU-pair's load is split between its two upstream UPSes
// by PairShare. An out-of-service UPS's entry is 0. dark reports whether
// any pair carrying load has lost both of its UPSes, i.e. racks lost power
// entirely. It is the from-scratch form of both safety inequalities:
// nothing out gives Eq. 2's left-hand side, one UPS out gives Eq. 4's.
func (t *Topology) LoadFlow(load PairLoad, out UPSSet) (loads []Watts, dark bool) {
	loads = make([]Watts, len(t.UPSes))
	return loads, t.LoadFlowInto(loads, load, out)
}

// LoadFlowInto is LoadFlow writing the UPS loads into loads, which has an
// entry per UPS, instead of a fresh slice: a caller that recomputes the
// flow every tick keeps one.
//
//flex:hotpath
func (t *Topology) LoadFlowInto(loads []Watts, load PairLoad, out UPSSet) (dark bool) {
	clear(loads)
	for _, p := range t.Pairs {
		w := load.at(p.ID)
		a, b := p.UPSes[0], p.UPSes[1]
		aOut, bOut := out.Has(a), out.Has(b)
		wa, wb := PairShare(aOut, bOut)
		loads[a] += Watts(wa) * w
		loads[b] += Watts(wb) * w
		if aOut && bOut && w > 0 {
			dark = true
		}
	}
	return dark
}

// UPSLoads computes the normal-operation load on every UPS (paper Eq. 2):
// each UPS carries half of every PDU-pair it feeds.
func (t *Topology) UPSLoads(load PairLoad) []Watts {
	loads, _ := t.LoadFlow(load, 0)
	return loads
}

// FailoverLoads computes the load on every UPS immediately after UPS
// `failed` goes out of service (paper Eq. 4's left-hand side, before any
// corrective action): pairs fed by the failed UPS transfer their full load
// to the surviving partner, other pairs are unchanged. The failed UPS's
// entry is 0.
func (t *Topology) FailoverLoads(load PairLoad, failed UPSID) []Watts {
	loads, _ := t.LoadFlow(load, SetOf(failed))
	return loads
}

// Overdrawn returns the UPSes whose load exceeds their rated capacity by
// more than slack (use slack 0 for a strict check).
func (t *Topology) Overdrawn(loads []Watts, slack Watts) []UPSID {
	var over []UPSID
	for i, u := range t.UPSes {
		if loads[i] > u.Capacity+slack {
			over = append(over, UPSID(i))
		}
	}
	return over
}

// Headroom returns, for every UPS, capacity minus load (negative when
// overdrawn).
func (t *Topology) Headroom(loads []Watts) []Watts {
	out := make([]Watts, len(t.UPSes))
	for i, u := range t.UPSes {
		out[i] = u.Capacity - loads[i]
	}
	return out
}

// NormalWithinConventionalLimits reports whether the normal-operation UPS
// loads respect the conventional per-UPS allocation limit (capacity × y/x).
// A conventional datacenter enforces this; a Flex datacenter instead allows
// loads up to full capacity during normal operation.
func (t *Topology) NormalWithinConventionalLimits(load PairLoad) bool {
	for u, w := range t.UPSLoads(load) {
		if w > t.AllocationLimit(UPSID(u))+CapacityTolerance {
			return false
		}
	}
	return true
}

// NormalWithinCapacity reports whether normal-operation UPS loads are
// within rated capacity — the Flex normal-operation constraint (Eq. 2 with
// the full capacity on the right-hand side).
func (t *Topology) NormalWithinCapacity(load PairLoad) bool {
	for u, w := range t.UPSLoads(load) {
		if w > t.UPSes[u].Capacity+CapacityTolerance {
			return false
		}
	}
	return true
}

// FailoverWithinCapacity reports whether, for the failure of UPS f, the
// post-shave loads given by shavedLoad keep every surviving UPS within
// rated capacity (paper Eq. 4). Callers pass the pair loads after applying
// CapPow to each deployment.
func (t *Topology) FailoverWithinCapacity(shavedLoad PairLoad, f UPSID) bool {
	loads := t.FailoverLoads(shavedLoad, f)
	for u := range t.UPSes {
		if UPSID(u) == f {
			continue
		}
		if loads[u] > t.UPSes[u].Capacity+CapacityTolerance {
			return false
		}
	}
	return true
}
