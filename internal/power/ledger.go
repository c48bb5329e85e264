package power

// PairShare is the load-transfer rule of the distributed-redundant design
// (paper Figure 2), and the only place it is written down: the fractions
// of a PDU-pair's load carried by its two upstream UPSes a and b, given
// which of them are out of service. In normal operation each carries half
// (Eq. 2); when one is out the other carries everything (Eq. 4's weight 1
// on pairs shared with the failed UPS); a pair that lost both is dark.
// The load-flow loop (Topology.LoadFlow), the incremental Ledger, the
// placement ILP's coefficients (FailoverWeight) and the controller's
// recovery estimates all derive from it.
func PairShare(aOut, bOut bool) (wa, wb float64) {
	switch {
	case aOut && bOut:
		return 0, 0
	case aOut:
		return 0, 1
	case bOut:
		return 1, 0
	default:
		return 0.5, 0.5
	}
}

// FailoverWeight is the coefficient of the safety inequalities for a
// deployment on a pair fed by UPSes a and b: the fraction of its power
// that UPS u carries while the UPSes in out are out of service. With
// nothing out it is Eq. 2's coefficient (½ on the pair's UPSes); with one
// UPS f out, Eq. 4's (1 when the pair is shared with f, ½ on the survivor's
// other pairs, 0 for f itself and for UPSes not on the pair).
func FailoverWeight(a, b, u UPSID, out UPSSet) float64 {
	wa, wb := PairShare(out.Has(a), out.Has(b))
	switch u {
	case a:
		return wa
	case b:
		return wb
	}
	return 0
}

// Ledger is the incremental form of the two safety inequalities: the
// per-UPS normal-operation load (Eq. 2's left-hand side) and, for every
// (failed, survivor) UPS combination, the survivor's load after the failed
// UPS's share has transferred (Eq. 4's left-hand side), maintained under
// signed additions of power on a PDU-pair. Placement policies, the online
// admitter and the batch ILP's right-hand sides all keep their committed
// state in one; Topology.LoadFlow is the from-scratch form it is tested
// against.
//
// The ledger tracks two quantities per addition because the inequalities
// are over different powers: Eq. 2 over the allocated power, Eq. 4 over
// the post-shave power (what remains after every rack has been throttled
// or shut down as far as its workload allows). A Ledger is not safe for
// concurrent use.
type Ledger struct {
	normalLimit []Watts // per-UPS Eq. 2 right-hand side
	capacity    []Watts // per-UPS Eq. 4 right-hand side
	// The two right-hand sides plus CapacityTolerance: what Check compares
	// against, added once here instead of once per comparison.
	normalMax   []Watts
	capacityMax []Watts
	normal      []Watts
	fail        []Watts // flattened [survivor*n+failed]
}

// NewLedger returns an empty ledger for topology t. normalLimit is the
// per-UPS limit on normal-operation load; nil means each UPS's rated
// capacity, the zero-reserved-power rule. Failover load is always limited
// by rated capacity.
func NewLedger(t *Topology, normalLimit []Watts) *Ledger {
	n := len(t.UPSes)
	l := &Ledger{
		normalLimit: make([]Watts, n),
		capacity:    make([]Watts, n),
		normalMax:   make([]Watts, n),
		capacityMax: make([]Watts, n),
		normal:      make([]Watts, n),
		fail:        make([]Watts, n*n),
	}
	for u := range t.UPSes {
		l.capacity[u] = t.UPSes[u].Capacity
	}
	if normalLimit == nil {
		normalLimit = l.capacity
	}
	copy(l.normalLimit, normalLimit)
	for u := range l.capacity {
		l.normalMax[u] = l.normalLimit[u] + CapacityTolerance
		l.capacityMax[u] = l.capacity[u] + CapacityTolerance
	}
	return l
}

// pairTables returns the failover rows of UPSes a and b: what each carries,
// post-shave, after every UPS in turn has failed. a and b are distinct (a
// Topology rejects a pair wired twice to one UPS). rb is cut to ra's length,
// which it has, so that one range check covers both in a loop.
func (l *Ledger) pairTables(a, b UPSID) (ra, rb []Watts) {
	n := len(l.normal)
	ra = l.fail[int(a)*n : int(a)*n+n]
	rb = l.fail[int(b)*n : int(b)*n+n]
	return ra, rb[:len(ra)]
}

// shareWeights returns PairShare's three weights: a UPS's share of its pair
// with neither UPS out, and with one out the failed UPS's and its partner's.
// Products by ½, 0 and 1 are exact.
func shareWeights() (each, out, whole Watts) {
	e, _ := PairShare(false, false)
	o, w := PairShare(true, false)
	return Watts(e), Watts(o), Watts(w)
}

// Add records pow of allocated power and capPow of post-shave power on a
// pair fed by UPSes a and b. Negative values reverse an earlier Add.
//
//flex:hotpath
func (l *Ledger) Add(a, b UPSID, pow, capPow Watts) {
	each, out, whole := shareWeights()
	l.normal[a] += each * pow
	l.normal[b] += each * pow
	// Every failure but the pair's own leaves each UPS its half; the loop
	// gives all rows that, and the four cells where a or b is the failed
	// UPS are then set from their old values.
	ra, rb := l.pairTables(a, b)
	aa, ab, ba, bb := ra[a], ra[b], rb[a], rb[b]
	half := each * capPow
	for f := range ra {
		ra[f] += half
		rb[f] += half
	}
	ra[a], ra[b] = aa+out*capPow, ab+whole*capPow
	rb[a], rb[b] = ba+whole*capPow, bb+out*capPow
}

// Verdict is the outcome of checking an addition against the two safety
// inequalities: it fits, or the first inequality, in the order they are
// checked, that refuses it.
type Verdict uint8

const (
	// WithinLimits: the addition keeps Eq. 2 and Eq. 4.
	WithinLimits Verdict = iota
	// OverNormalLimit: a UPS of the pair would exceed its normal-operation
	// limit (Eq. 2, over the allocated power).
	OverNormalLimit
	// OverFailoverCapacity: after some single UPS failure a UPS of the pair
	// would exceed its rated capacity even with everything shaved (Eq. 4,
	// over the post-shave power).
	OverFailoverCapacity
)

// Check reports whether Add(a, b, pow, capPow) would keep both UPSes within
// their normal-operation limits (Eq. 2) and, for every single UPS failure,
// within their rated capacity after maximal shaving (Eq. 4), each with
// CapacityTolerance of slack — and if not, which of the two refuses. Eq. 2
// reads only pow and Eq. 4 only capPow. UPSes off the pair are unaffected
// by the addition and are not re-checked.
//
//flex:hotpath
func (l *Ledger) Check(a, b UPSID, pow, capPow Watts) Verdict {
	each, out, whole := shareWeights()
	if l.normal[a]+each*pow > l.normalMax[a] || l.normal[b]+each*pow > l.normalMax[b] {
		return OverNormalLimit
	}
	ra, rb := l.pairTables(a, b)
	maxA, maxB := l.capacityMax[a], l.capacityMax[b]
	// The pair's own two failures first: the survivor takes the whole
	// addition, so these are the rows likeliest to refuse.
	if ra[b]+whole*capPow > maxA || rb[a]+whole*capPow > maxB ||
		ra[a]+out*capPow > maxA || rb[b]+out*capPow > maxB {
		return OverFailoverCapacity
	}
	half := each * capPow
	for f := range ra {
		if UPSID(f) != a && UPSID(f) != b && (ra[f]+half > maxA || rb[f]+half > maxB) {
			return OverFailoverCapacity
		}
	}
	return WithinLimits
}

// Normal returns UPS u's normal-operation load.
func (l *Ledger) Normal(u UPSID) Watts { return l.normal[u] }

// Failover returns survivor u's post-shave load after UPS f fails.
func (l *Ledger) Failover(f, u UPSID) Watts { return l.fail[int(u)*len(l.normal)+int(f)] }

// NormalHeadroom returns UPS u's normal-operation limit minus its load.
func (l *Ledger) NormalHeadroom(u UPSID) Watts { return l.normalLimit[u] - l.normal[u] }

// FailoverHeadroom returns survivor u's capacity minus its post-shave load
// after UPS f fails.
func (l *Ledger) FailoverHeadroom(f, u UPSID) Watts { return l.capacity[u] - l.Failover(f, u) }

// CopyFrom overwrites l's loads with src's, for scratch copies of a
// committed ledger made by Clone (or NewLedger with the same arguments).
func (l *Ledger) CopyFrom(src *Ledger) {
	copy(l.normal, src.normal)
	copy(l.fail, src.fail)
}

// Clone returns an independent copy of l with the same limits and loads.
func (l *Ledger) Clone() *Ledger {
	return &Ledger{
		normalLimit: l.normalLimit,
		capacity:    l.capacity,
		normalMax:   l.normalMax,
		capacityMax: l.capacityMax,
		normal:      append([]Watts(nil), l.normal...),
		fail:        append([]Watts(nil), l.fail...),
	}
}
