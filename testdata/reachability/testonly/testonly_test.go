package testonly

import "testing"

func TestOnlyFromTests(t *testing.T) {
	if OnlyFromTests() != 1 {
		t.Fatal("OnlyFromTests")
	}
}
