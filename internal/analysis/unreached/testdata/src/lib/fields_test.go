package lib

import "testing"

// A read from a test file is no read: the field is still reported.
func TestFields(t *testing.T) {
	if (Config{}).TestOnly != 0 || Unnamed != 2 {
		t.Fatal("zero value")
	}
}
