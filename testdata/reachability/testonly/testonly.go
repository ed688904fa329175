// Package testonly: a function whose one caller is a test.
package testonly

func OnlyFromTests() int { return 1 } // reported

func Used() int { return countdown(3) }

// countdown calls itself; that use does not count, Used's does.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// spin's only caller is itself: reported.
func spin(n int) int {
	if n == 0 {
		return 0
	}
	return spin(n - 1)
}
