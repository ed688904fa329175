package fields

import "testing"

func TestTested(t *testing.T) {
	if (T{tested: 1}).tested != 1 {
		t.Fatal("tested")
	}
}
