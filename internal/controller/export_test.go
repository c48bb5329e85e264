package controller

// Steps reports how many evaluation rounds have run.
func (c *Controller) Steps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}
