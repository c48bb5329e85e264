package unreached_test

import (
	"testing"

	"flex/internal/analysis/analysistest"
	"flex/internal/analysis/unreached"
)

func TestUnreached(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), unreached.Analyzer, "app", "flex")
}
