"""
Circuit counts and why only the special symmetric class survives
================================================================

A word's circuit class over [n] collects the closed walks whose edge-repeat
pattern matches the word. Words with b distinct letters have at most
n^(b+1) circuits; the special symmetric ones attain that rate, everyone else
falls at least a factor of n short, which is why they vanish from limiting
moments after the 1/n^(b+1) normalisation.
"""

from esdlab import Word, classify_occurrences, count_circuits, ratio_table

# the ratio column is count / n^(b+1), exact rational arithmetic
for letters, sizes in (("aabb", [4, 8, 16, 32, 1024]), ("abccba", [4, 8, 16, 32])):
    print(f"word {letters}: ratio -> 1 as n grows")
    for row in ratio_table(Word.from_string(letters), sizes):
        print(f"  n={row.n:3d}  count={row.count:12d}  ratio={float(row.ratio):.4f}")

# a non special symmetric word stays an order of n below its ceiling
print("\nword abab: even but not symmetric, so the class is tiny")
for n in (4, 8, 16):
    row = count_circuits(Word.from_string("abab"), n)
    print(f"  n={n:3d}  count={row.count:4d}  ceiling n^3={n**3}")

print("\nword abcabc: count grows like n^3, one n short of n^4")
for n in (4, 8, 16):
    row = count_circuits(Word.from_string("abcabc"), n)
    print(f"  n={n:3d}  count={row.count:6d}  count/n^3={row.count/n**3:.3f}")

# inside one circuit, each repeated letter traverses its edge either along
# the first traversal (C1) or against it (C2)
walk = (1, 2, 1, 3, 1, 2, 1, 3, 1)
labels = classify_occurrences(Word.from_string("aabbaabb"), walk)
print("\ncircuit", walk, "for aabbaabb")
print("repeat positions ->", labels)
