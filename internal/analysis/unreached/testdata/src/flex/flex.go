// Package flex is the fixture's facade: an export is a root only when a
// program calls it.
package flex

import "lib"

// Shard aliases the internal type.
type Shard = lib.Shard

// NewShard is exported, but no main calls it.
func NewShard() *Shard { return lib.NewShard() } // want `flex.NewShard is reached from no binary`

// Run is exported and app's main calls it, so it and what it calls stay.
func Run() { lib.ViaFacade() }

func unexported() {} // want `flex.unexported is reached from no binary`
