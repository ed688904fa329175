package errstatus_test

import (
	"path/filepath"
	"testing"

	"caar/tools/caarlint/errstatus"
	"caar/tools/caarlint/internal/atest"
)

func TestAnalyzer(t *testing.T) {
	// The fixture declares a second engine interface; the server has one.
	if err := errstatus.Analyzer.Flags.Set("apitypes", "API,PolicyAPI"); err != nil {
		t.Fatal(err)
	}
	atest.Run(t, filepath.Join("..", "testdata"), errstatus.Analyzer, "errstatus")
}
