// Package collide: two methods share a name and only one is called.
package collide

type A struct{}

func (A) Reset() {} // reported: B.Reset's caller does not use it

type B struct{}

func (B) Reset() {}

func Use() { B{}.Reset() }
