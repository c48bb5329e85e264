package controller

// ActedRacks returns the racks this controller has acted on and not yet
// restored.
func (c *Controller) ActedRacks() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.acted))
	for id := range c.acted {
		out = append(out, id)
	}
	return out
}

// Steps reports how many evaluation rounds have run.
func (c *Controller) Steps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}
