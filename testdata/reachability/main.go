// Command fixture is the reachability guard's test tree: each package
// plants one case, and main is the one non-test user of them all.
package main

import (
	"fixture/collide"
	"fixture/fields"
	"fixture/idle"
	"fixture/notsort"
	"fixture/promoted"
	"fixture/testonly"
)

func main() {
	collide.Use()
	promoted.Run(promoted.Impl{})
	notsort.Sort([]int{3, 1, 2})
	_ = notsort.Sizes{1}
	idle.Call(idle.T{})
	idle.Direct(idle.T{})
	testonly.Used()
	fields.Depth(fields.New())
	_ = fields.Wire{}
}
