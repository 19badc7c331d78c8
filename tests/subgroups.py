"""Finite-index subgroups of a Schottky group, for known-answer tests.

A transitive permutation action of G's generators on n cosets, coset 0
being H, gives H by a Schreier transversal: the coset representatives
are reduced words found breadth first, so each is the path from the
identity in a spanning tree of the coset graph.  Each edge (t, l) outside
the tree, l a generator and s the representative of the coset t.l, gives
the generator t l s^-1 of H with the disk pair (s(D_-l), t(D_l)):
t l s^-1 maps the complement of s(K_-l) onto t(D_l).  Both disks are open
disk images, because t l and s l^-1 are reduced (the edge is not in the
tree) and the pole of a word's homography lies in the domain disk of the
inverse of its last letter.  The domains t(F) tile a fundamental domain
of H, whose rank is n(r - 1) + 1.
"""

from schottky.disks import image
from schottky.groups import SchottkyGroup
from schottky.words import Word, alphabet


def domain_disk(G, letter):
    """The open domain disk D_l: C_i for l = i, B_i for l = -i."""
    return G.C[letter - 1] if letter > 0 else G.B[-letter - 1]


def act(perms, coset, letter):
    """The coset times the letter; perms[i - 1][c] is c times g_i."""
    perm = perms[abs(letter) - 1]
    return perm[coset] if letter > 0 else perm.index(coset)


def orbit_length(perms, letters):
    """The least k >= 1 with coset 0 times the word**k equal to coset 0."""
    coset, k = 0, 0
    while True:
        for l in letters:
            coset = act(perms, coset, l)
        k += 1
        if coset == 0:
            return k


class Subgroup:
    """The stabilizer H of coset 0 under a permutation action of G.

    ``group`` is H as a SchottkyGroup, ``reps`` maps each coset to its
    representative's letters, and ``edges`` maps each edge (coset, i)
    outside the tree to the index of H's generator t g_i s^-1."""

    def __init__(self, G, perms):
        self.perms = tuple(tuple(p) for p in perms)
        n = len(self.perms[0])
        reps, queue = {0: ()}, [0]
        for c in queue:
            t = reps[c]
            for l in alphabet(G.rank):
                d = act(self.perms, c, l)
                if d not in reps and t[-1:] != (-l,):
                    reps[d] = t + (l,)
                    queue.append(d)
        if len(reps) != n:
            raise ValueError("the action is not transitive")
        gens, B, C, self.edges = [], [], [], {}
        for c, t in sorted(reps.items()):
            for i in range(1, G.rank + 1):
                s = reps[act(self.perms, c, i)]
                if s == t + (i,) or t == s + (-i,):
                    continue  # a tree edge
                self.edges[c, i] = len(gens) + 1
                h_t, h_s = G.word_homography(t), G.word_homography(s)
                gens.append(h_t * G.generator(i) * h_s.inverse())
                B.append(image(h_s, domain_disk(G, -i)))
                C.append(image(h_t, domain_disk(G, i)))
        self.reps = reps
        self.group = SchottkyGroup(G.ctx, gens, B, C)

    def rewrite(self, letters) -> Word:
        """H's reduced word for a word of G that lies in H
        (Reidemeister-Schreier): each letter at coset c crossing an edge
        outside the tree reads that edge's generator, or its inverse."""
        out, c = [], 0
        for l in letters:
            d = act(self.perms, c, l)
            if l > 0 and (c, l) in self.edges:
                out.append(self.edges[c, l])
            elif l < 0 and (d, -l) in self.edges:
                out.append(-self.edges[d, -l])
            c = d
        if c != 0:
            raise ValueError(f"{letters} is not in H")
        return Word.reduced(out)
