package lib

// Used is called from main, and so is what it calls.
func Used() { helper() }

func helper() {}

// Unused has no caller.
func Unused() {} // want `lib.Unused is reached from no binary`

// Kept stays for a documented reason, and keeps its callees.
//
//flex:keep the fixture's reason
func Kept() { keptCallee() }

func keptCallee() {}

// Bare carries a keep without a reason.
//
//flex:keep
func Bare() {} // want `flex:keep on lib.Bare requires a reason`

// table is named by nothing, but what its initialiser names is reached.
var table = map[string]func(){"a": viaVar} // want `lib.table is named by no non-test code`

func viaVar() { viaVarCallee() }

func viaVarCallee() {}

// runner has an unexported method: only this package can implement it.
type runner interface{ run() }

type job struct{}

// NewJob returns a runner.
func NewJob() runner { return job{} }

func (job) run() {}

// Dispatch calls through the interface.
func Dispatch(r runner) { r.run() }

// ViaFacade is reached through the facade's Run.
func ViaFacade() {}

// Shard is aliased by the facade; its methods are not the facade's.
type Shard struct{}

// NewShard returns a shard; only the facade's unreached NewShard calls it.
func NewShard() *Shard { return &Shard{} } // want `lib.NewShard is reached from no binary`

// Start has no caller.
func (s *Shard) Start() {} // want `lib.Shard.Start is reached from no binary`
