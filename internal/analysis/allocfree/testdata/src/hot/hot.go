// Fixture: //flex:hotpath roots must be allocation-free, transitively
// over static calls. Bad demonstrates every flagged construct; Clean
// shows the allowed ones (atomics, mutexes, plain struct literals, calls
// into //flex:coldpath slow paths and into bodiless //flex:hotpath
// functions).
package hot

import (
	"strconv"
	"sync"

	"lib"
)

// Sink is an injected consumer; calls through it are dynamic.
type Sink interface{ Write(v int) }

// Rec is the hot component.
type Rec struct {
	mu   sync.Mutex
	buf  lib.Buf
	vals [8]int
	n    int
	fn   func(int)
	sink Sink
}

// Point is a plain struct; its composite literal is stack-allocated.
type Point struct{ X, Y int }

// Emit reaches lib.Push, whose append is flagged in lib.
//
//flex:hotpath
func (r *Rec) Emit(v int) {
	r.mu.Lock()
	r.vals[r.n%len(r.vals)] = v
	r.n++
	r.mu.Unlock()
	r.buf.Push(v)
}

//flex:hotpath
func Bad(r *Rec, s string, v int) {
	_ = make([]int, 4)   // want `hot path allocates: make in Bad \(//flex:hotpath\)`
	_ = new(int)         // want `hot path allocates: new in Bad \(//flex:hotpath\)`
	_ = []int{v}         // want `hot path allocates: slice literal in Bad \(//flex:hotpath\)`
	_ = map[string]int{} // want `hot path allocates: map literal in Bad \(//flex:hotpath\)`
	_ = &Point{X: v}     // want `hot path allocates: address of composite literal in Bad \(//flex:hotpath\)`
	f := func(i int) {}  // want `hot path allocates: function literal \(closure\) in Bad \(//flex:hotpath\)`
	_ = f
	go spawned(v)       // want `hot path allocates: go statement \(new goroutine\) in Bad \(//flex:hotpath\)`
	_ = s + "!"         // want `hot path allocates: non-constant string concatenation in Bad \(//flex:hotpath\)`
	_ = []byte(s)       // want `hot path allocates: string conversion copies its data in Bad \(//flex:hotpath\)`
	_ = strconv.Itoa(v) // want `hot path allocates: call to strconv\.Itoa, which may allocate in Bad \(//flex:hotpath\)`
	r.fn(v)             // want `hot path allocates: dynamic call, not provably allocation-free in Bad \(//flex:hotpath\)`
	consume(v)          // want `hot path allocates: interface boxing of int in Bad \(//flex:hotpath\)`
	variadic(v, v)      // want `hot path allocates: variadic call builds a slice in Bad \(//flex:hotpath\)`
	_ = lib.Opaque(nil) // want `hot path allocates: call to lib\.Opaque, which may allocate in Bad \(//flex:hotpath\)`
}

func spawned(v int) {}

func consume(x interface{}) {}

func variadic(xs ...int) {}

// Clean is a hot root with only allowed constructs.
//
//flex:hotpath
func (r *Rec) Clean(v int) {
	r.mu.Lock()
	r.n += v
	p := Point{X: v, Y: r.n}
	r.vals[0] = p.X
	r.mu.Unlock()
	_ = r.buf.Dump()       // coldpath callee: the call is fine, its body unchecked
	_ = lib.Sum(r.vals[:]) // bodiless hotpath callee: taken at its word
}

// Unmarked is not reachable from any root; it may allocate.
func Unmarked() []int {
	return append([]int(nil), 1, 2, 3)
}
