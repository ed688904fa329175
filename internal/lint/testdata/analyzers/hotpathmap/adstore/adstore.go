// Package adstore stands in for the module's ad store: the analyzer knows
// an ad ID by its type's name and package name.
package adstore

// AdID identifies an ad.
type AdID int64
