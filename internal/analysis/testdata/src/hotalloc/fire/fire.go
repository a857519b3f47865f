// Package fire holds hotalloc firing cases: one annotated function
// exercising every allocating construct the analyzer knows.
package fire

import "fmt"

// Adder is an interface target for the boxing checks.
type Adder interface{ Add(n int) int }

// Counter implements Adder with a concrete value type.
type Counter int

// Add implements Adder.
func (c Counter) Add(n int) int { return int(c) + n }

type point struct{ x, y int }

// Hot is annotated, so every allocation below is charged.
//
//mobicore:hotpath
func Hot(n int, c Counter, buf []int, prefix, suffix string) int {
	s := make([]int, n)          // want "hotalloc: make in hot path"
	p := new(int)                // want "hotalloc: new in hot path"
	buf = append(buf, n)         // want "hotalloc: append in hot path"
	fmt.Println(n)               // want "hotalloc: fmt.Println in hot path"
	lit := []int{1, 2}           // want "hotalloc: slice literal in hot path"
	m := map[string]int{}        // want "hotalloc: map literal in hot path"
	pt := &point{x: n}           // want "hotalloc: &composite literal in hot path"
	f := func() int { return n } // want "hotalloc: func literal in hot path"
	joined := prefix + suffix    // want "hotalloc: string concatenation in hot path"
	joined += suffix             // want "hotalloc: string concatenation in hot path"
	boxed := Adder(c)            // want "hotalloc: conversion to interface"
	var a Adder
	a = c // want "hotalloc: assignment boxes"
	return len(s) + *p + len(buf) + lit[0] + len(m) + pt.x + f() + len(joined) +
		boxed.Add(n) + a.Add(n)
}

// HotBox is a generic annotated function: a type parameter holds a
// concrete value at every instantiation, so storing it in an interface
// boxes it just as storing a Counter does.
//
//mobicore:hotpath
func HotBox[T any](v T) (any, any) {
	var a any
	a = v       // want "hotalloc: assignment boxes"
	b := any(v) // want "hotalloc: conversion to interface"
	return a, b
}
