// Fixture: a helper in another package. Push allocates and is reached
// from a //flex:hotpath root across the package boundary; Dump is an
// audited //flex:coldpath slow path the traversal stops at. Sum and Opaque
// have no Go body (assembly, in a real package): Sum's //flex:hotpath
// vouches for it, Opaque is unknown.
package lib

// Buf accumulates values.
type Buf struct {
	xs []int
}

// Push appends, growing the backing array.
func (b *Buf) Push(v int) {
	b.xs = append(b.xs, v) // want `hot path allocates: append may grow its backing array in Push \(reachable from //flex:hotpath Emit\)`
}

// Dump copies the values out. It allocates freely: the coldpath
// directive marks it as an audited slow path.
//
//flex:coldpath
func (b *Buf) Dump() []int {
	out := make([]int, len(b.xs))
	copy(out, b.xs)
	return out
}

// Sum adds the values in assembly, which cannot allocate.
//
//flex:hotpath
func Sum(xs []int) int

// Opaque has no Go body and no directive.
func Opaque(xs []int) int
