// Package notsort: Len counts as called by the standard library only on a
// type that implements sort.Interface.
package notsort

import "sort"

type Sizes []int

func (s Sizes) Len() int { return len(s) } // reported: Sizes is no sort.Interface

type byValue []int

func (s byValue) Len() int           { return len(s) }
func (s byValue) Less(i, j int) bool { return s[i] < s[j] }
func (s byValue) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func Sort(v []int) { sort.Sort(byValue(v)) }
