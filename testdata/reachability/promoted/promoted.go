// Package promoted: a method promoted from an embedded struct and reached
// only through an interface.
package promoted

type Lister interface{ Last() int }

type base struct{ n int }

func (b base) Last() int { return b.n } // used: Impl satisfies Lister through it

type Impl struct{ base }

func Run(l Lister) int { return l.Last() }
