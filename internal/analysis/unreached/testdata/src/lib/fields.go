package lib

// Config has one field of each kind.
type Config struct {
	Read    int
	Unread  int // want `lib.Config.Unread is read by no non-test code`
	Written int // want `lib.Config.Written is read by no non-test code`
	Tagged  int `json:"tagged"`
	inner
	_ int
	// Kept is read by no code, for a documented reason.
	//
	//flex:keep the fixture's reason
	Kept     int
	Trailing int //flex:keep the fixture's reason, as a trailing comment
	// Bare carries a keep without a reason.
	//
	//flex:keep
	Bare int // want `flex:keep on lib.Config.Bare requires a reason`
	// TestOnly is read only by a test.
	TestOnly int // want `lib.Config.TestOnly is read by no non-test code`
}

// inner is embedded: the embedding is no read of its fields.
type inner struct {
	Promoted int
	Hidden   int // want `lib.inner.Hidden is read by no non-test code`
}

// Key is a map key: hashing reads every field.
type Key struct{ A, B int }

// Value is a map value, which no hashing reads.
type Value struct {
	C int // want `lib.Value.C is read by no non-test code`
}

// Pair is compared with ==, which reads every field.
type Pair struct {
	X     int
	Inner struct{ Y int }
}

// Result is kept whole: the keep on a type keeps all its fields.
//
//flex:keep the fixture's reason
type Result struct {
	Total int
	Parts []int
}

// BareResult carries a keep without a reason; its fields stay all the
// same.
//
//flex:keep
type BareResult struct { // want `flex:keep on lib.BareResult requires a reason`
	Sum int
}

// Local is written through a pointer and never read.
type Local struct {
	n int // want `lib.Local.n is read by no non-test code`
}

// Named is used; Unnamed is not.
const (
	Named   = 1
	Unnamed = 2 // want `lib.Unnamed is named by no non-test code`
)

var named, unnamed = 3, 4 // want `lib.unnamed is named by no non-test code`

// kept is named by nothing, for a documented reason.
//
//flex:keep the fixture's reason
var kept = 5

// Fields reads what it must and writes the rest.
func Fields() int {
	c := Config{Read: Named, Written: named}
	c.Written = 2
	l := &Local{}
	l.n = 1
	seen := map[Key]Value{{A: 1, B: 2}: {C: 3}}
	p, q := Pair{X: 1}, Pair{}
	q.Inner.Y = 3
	var anon struct {
		Used   int
		Unused int // want `lib.struct.Unused is read by no non-test code`
	}
	anon.Unused = c.Read
	return c.Read + c.Promoted + len(seen) + boolInt(p == q) + anon.Used + Result{}.Total + BareResult{}.Sum
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
