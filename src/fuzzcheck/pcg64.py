"""The uniform doubles of `numpy.random.default_rng(seed)`, drawn in integer
Python, so that `demo-gl` never imports `numpy.random` (about 6 MiB, most
of it OpenSSL, loaded through `secrets` and `hashlib`).

Both algorithms are numpy's, and both are fixed: `SeedSequence(seed)` mixes
the seed's 32-bit words into a pool of four and hashes that pool into the
generator's 128-bit state and increment; PCG64 steps a 128-bit LCG and
outputs its XSL-RR 128/64 permutation; a double is the top 53 bits of one
output times 2**-53.
"""

M32, M64, M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(seed: int) -> list:
    """SeedSequence(seed).generate_state(8, uint32): the seed's 32-bit words,
    low first, mixed into a pool of four and hashed out to eight words."""
    words = [seed & M32]
    while seed > M32:
        seed >>= 32
        words.append(seed & M32)
    mult = INIT_A

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * MULT_A & M32
        value = value * mult & M32
        return value ^ value >> 16

    def mix(x, y):
        x = (MIX_MULT_L * x - MIX_MULT_R * y) & M32
        return x ^ x >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, mult = [], INIT_B
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * MULT_B & M32
        value = value * mult & M32
        out.append(value ^ value >> 16)
    return out


def uniform_draws(seed: int):
    """An endless iterator over default_rng(seed).uniform(-1.0, 1.0)'s
    values, in the order successive calls of any size draw them."""
    w = seed_words(seed)
    # generate_state(4, uint64) pairs the words low first; PCG64 takes the
    # first two as the initial state and the last two as the stream.
    s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((i0 << 64 | i1) << 1 | 1) & M128
    state = (inc + (s0 << 64 | s1)) * PCG_MULT + inc & M128
    while True:
        state = state * PCG_MULT + inc & M128
        x, rot = ((state >> 64) ^ state) & M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & M64
        yield -1.0 + 2.0 * ((x >> 11) * 2.0**-53)
