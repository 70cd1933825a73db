package core

// DecodeDataset exposes the one-pass decoder to the tests in package
// core_test, which build whole studies through the root package and so
// cannot live in package core itself.
var DecodeDataset = decodeDataset
