// Package flex is the fixture's facade: its exported API is a root.
package flex

import "lib"

// Shard aliases the internal type.
type Shard = lib.Shard

// NewShard is part of the facade.
func NewShard() *Shard { return lib.NewShard() }

func unexported() {} // want `flex.unexported is reached from no binary`
