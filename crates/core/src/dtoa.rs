//! Shortest round-trip text for `f64`, byte-identical to `format!("{x}")`.
//!
//! The ASCII outputs — legacy-VTK fields ([`crate::output`]) and probe CSVs
//! ([`crate::probes`]) — print millions of values, and std's `{}` spends
//! 120–210 ns on each through `core::fmt`. [`TextWriter`] streams the same
//! bytes through one 64 KiB buffer, formatting straight into it: the
//! shortest decimal that reads back to the same bits, the one nearest the
//! exact value when several are that short (an exact tie rounds up, as
//! std's does), laid out as `Display` lays it out (no exponent: `1e-7` is
//! `0.0000001` and `1e300` is a 1 followed by 300 zeros; `-0`, `inf`,
//! `-inf`, `NaN`).
//!
//! The digits come from Ryū's search (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the rounding interval of the value — inclusive
//! when the mantissa is even, as std's decoder sets it — is scaled by a
//! 125-bit approximation of `5^±q`, and digits are dropped while the two
//! bounds still differ. The `5^q` and `2^k / 5^q` tables are computed at
//! compile time from exact big integers (`POW5`, `POW5_INV`); digits are
//! written two at a time from a `"00".."99"` table.

use std::io::{self, Write};

/// Longest text of an `f64`: `-0.`, 307 zeros and 17 digits
/// (`-2.225073858507201e-308`, the largest subnormal, is 326 bytes) or
/// `-0.`, 323 zeros and `5` (`-5e-324`): the last digit of a shortest `f64`
/// never lies below `10^-324`.
const MAX_LEN: usize = 327;
/// [`TextWriter`]'s buffer.
const BUF_LEN: usize = 64 << 10;

/// Bits of the `f64` significand field.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of `f64`.
const BIAS: i32 = 1023;
/// Bits kept of each `5^q` ([`POW5`]) and `2^k / 5^q` ([`POW5_INV`]).
const POW5_BITS: i32 = 125;
/// `q` reaches 290 for the largest binary exponent (969 = 2046 − 1023 − 54).
const POW5_INV_LEN: usize = 291;
/// `-e2 - q` reaches 325 for the smallest binary exponent (−1076).
const POW5_LEN: usize = 326;

/// `ceil(log2(5^e))` (the bit length of `5^e`, 1 at `e = 0`), exact for
/// `0 <= e <= 3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
const fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
const fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Limbs of the table builder's big integers: 896 bits hold `5^326 * 2^128`
/// (885 bits) and the `2^895` numerator of the inverse table.
const LIMBS: usize = 14;
type Big = [u64; LIMBS];

const fn big_mul5(mut a: Big) -> Big {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let t = a[i] as u128 * 5 + carry;
        a[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    assert!(carry == 0, "5^q outgrew the table builder");
    a
}

/// `floor(a / 5)`.
const fn big_div5(mut a: Big) -> Big {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let t = (rem << 64) | a[i] as u128;
        a[i] = (t / 5) as u64;
        rem = t % 5;
    }
    a
}

const fn limb(a: &Big, i: usize) -> u128 {
    if i < LIMBS {
        a[i] as u128
    } else {
        0
    }
}

/// `floor(a / 2^s)`, which must fit in 128 bits.
const fn big_shr(a: &Big, s: usize) -> u128 {
    let (w, b) = (s / 64, (s % 64) as u32);
    let lo = (limb(a, w) | limb(a, w + 1) << 64) >> b;
    let hi = if b == 0 {
        0
    } else {
        limb(a, w + 2) << (128 - b)
    };
    let mut i = w + 2 + (b > 0) as usize;
    while i < LIMBS {
        assert!(a[i] == 0, "shifted value exceeds 128 bits");
        i += 1;
    }
    lo | hi
}

/// `POW5[i]` = the top [`POW5_BITS`] bits of `5^i`:
/// `floor(5^i * 2^(125 - pow5_bits(i)))`.
const POW5: [u128; POW5_LEN] = {
    // p = 5^i * 2^128, so that the shift is never negative.
    let mut t = [0u128; POW5_LEN];
    let mut p: Big = [0; LIMBS];
    p[2] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        t[i] = big_shr(&p, (pow5_bits(i as i32) + 128 - POW5_BITS) as usize);
        p = big_mul5(p);
        i += 1;
    }
    t
};

/// `POW5_INV[i]` = `floor(2^(pow5_bits(i) - 1 + 125) / 5^i) + 1`, a
/// 125-bit approximation of `5^-i` rounded up.
const POW5_INV: [u128; POW5_INV_LEN] = {
    // x = floor(2^895 / 5^i), one exact division by 5 per entry: nested
    // floors of integer divisions compose, so the shift below is exact.
    const N: i32 = 64 * LIMBS as i32 - 1;
    let mut t = [0u128; POW5_INV_LEN];
    let mut x: Big = [0; LIMBS];
    x[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_INV_LEN {
        let k = pow5_bits(i as i32) - 1 + POW5_BITS;
        t[i] = big_shr(&x, (N - k) as usize) + 1;
        x = big_div5(x);
        i += 1;
    }
    t
};

/// `"00" "01" … "99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// `floor(m * mul / 2^j)` for a 55-bit `m`, a 125-bit `mul` and `j >= 64`.
#[inline]
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * (mul as u64 as u128);
    let hi = u128::from(m) * (mul >> 64);
    let r = ((lo >> 64) + hi) >> (j - 64);
    debug_assert!(r >> 64 == 0, "scaled bound overflows 64 bits");
    r as u64
}

fn multiple_of_pow5(mut v: u64, q: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) && count < q {
        v /= 5;
        count += 1;
    }
    count >= q
}

/// The shortest decimal `digits * 10^exp` that reads back to the finite,
/// nonzero `f64` with this significand field and biased exponent.
fn shortest(ieee_man: u64, ieee_exp: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exp == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_man)
    } else {
        (
            ieee_exp as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_man,
        )
    };
    // The rounding interval is [4m - 1 - mm_shift, 4m + 2] * 2^e2 (halved
    // distances, times 4); its bounds belong to it when m is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_man != 0 || ieee_exp <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    let (mut vr, mut vp, mut vm, e10);
    // Whether the lower bound is an exact decimal at the digit count reached.
    let mut vm_tz = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5_bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // Only one of mv, mp, mm can be a multiple of 5; an exact value
        // needs no care (std rounds its ties up, as the loops below do).
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_tz = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5_bits(i) - POW5_BITS);
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_tz = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0;
    let output = if vm_tz {
        // Rare: the included lower bound is exact, so it may itself be the
        // shortest; drop its trailing zeros too.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_tz &= vm.is_multiple_of(10);
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_tz {
            while vm.is_multiple_of(10) {
                last = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_tz) || last >= 5)
    } else {
        // Drop digits while the bounds still differ: eight at a time, then
        // four, two, one (a short text such as `999.999` drops 14). Only
        // the last digit dropped decides the rounding.
        let mut round_up = false;
        let mut v = [vr, vp, vm];
        // Drop `k` digits (`pow` = 10^k) if the bounds still differ after.
        let mut drop = |v: &mut [u64; 3], pow: u64, k: i32| {
            let differ = v[1] / pow > v[2] / pow;
            if differ {
                round_up = v[0] % pow >= pow / 2;
                v.iter_mut().for_each(|x| *x /= pow);
                removed += k;
            }
            differ
        };
        while drop(&mut v, 100_000_000, 8) {}
        drop(&mut v, 10_000, 4);
        drop(&mut v, 100, 2);
        drop(&mut v, 10, 1);
        let [vr, _, vm] = v;
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Digits of [`shortest`] end here in [`format_into`]'s scratch, whose
/// length lets every copy out of it move a fixed [`COPY`] bytes.
const DIGITS_END: usize = 24;
/// Bytes every digit copy moves (a whole 17-digit significand, and more).
const COPY: usize = 20;
/// Room [`format_into`] needs: the longest text plus one fixed-size copy.
const ROOM: usize = MAX_LEN + COPY;

/// Write the two digits of `r < 100` at `out[i..i + 2]`.
#[inline]
fn put_pair(out: &mut [u8], i: usize, r: usize) {
    out[i..i + 2].copy_from_slice(&DIGIT_PAIRS[2 * r..2 * r + 2]);
}

/// Write `v`'s decimal digits, two at a time, ending at `out[DIGITS_END]`;
/// return where they start. Eight-digit chunks run in 32-bit arithmetic.
#[inline]
fn write_digits(mut v: u64, out: &mut [u8; DIGITS_END + COPY]) -> usize {
    let mut end = DIGITS_END;
    while v >= 100_000_000 {
        let chunk = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (hi, lo) = ((chunk / 10_000) as usize, (chunk % 10_000) as usize);
        put_pair(out, end - 2, lo % 100);
        put_pair(out, end - 4, lo / 100);
        put_pair(out, end - 6, hi % 100);
        put_pair(out, end - 8, hi / 100);
        end -= 8;
    }
    let mut v = v as u32;
    while v >= 100 {
        end -= 2;
        put_pair(out, end, (v % 100) as usize);
        v /= 100;
    }
    if v >= 10 {
        end -= 2;
        put_pair(out, end, v as usize);
    } else {
        end -= 1;
        out[end] = b'0' + v as u8;
    }
    end
}

/// Write `format!("{x}")` at the start of `b`; return its length. Bytes
/// past it may be overwritten too.
#[inline]
fn format_into(x: f64, b: &mut [u8; ROOM]) -> usize {
    let bits = x.to_bits();
    let ieee_man = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exp = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    let neg = bits >> 63 != 0;
    let word: &[u8] = match (ieee_exp, ieee_man, neg) {
        (0x7ff, 1.., _) => b"NaN",
        (0x7ff, 0, false) => b"inf",
        (0x7ff, 0, true) => b"-inf",
        (0, 0, false) => b"0",
        (0, 0, true) => b"-0",
        _ => b"",
    };
    if !word.is_empty() {
        b[..word.len()].copy_from_slice(word);
        return word.len();
    }
    let at = usize::from(neg);
    b[0] = b'-';
    let (digits, e10) = shortest(ieee_man, ieee_exp);
    let mut d = [0u8; DIGITS_END + COPY];
    let start = write_digits(digits, &mut d);
    let n = DIGITS_END - start;
    // Copy the digits from the `from`-th on to `b[to..]`: [`COPY`] bytes
    // move, and what lands past the text's end is not part of it.
    let put = |b: &mut [u8; ROOM], to: usize, from: usize| {
        b[to..to + COPY].copy_from_slice(&d[start + from..start + from + COPY])
    };
    // Digits before the decimal point.
    let point = n as i32 + e10;
    if e10 >= 0 {
        let zeros = e10 as usize;
        put(b, at, 0);
        b[at + n..at + n + zeros.max(16)].fill(b'0');
        at + n + zeros
    } else if point > 0 {
        let p = point as usize;
        put(b, at, 0);
        b[at + p] = b'.';
        put(b, at + p + 1, p);
        at + n + 1
    } else {
        let zeros = point.unsigned_abs() as usize;
        b[at..at + 2].copy_from_slice(b"0.");
        b[at + 2..at + 2 + zeros.max(16)].fill(b'0');
        put(b, at + 2 + zeros, 0);
        at + 2 + zeros + n
    }
}

/// Buffered text output that formats `f64`s straight into its buffer.
///
/// Like `BufWriter`, it holds up to 64 KiB before writing to `out`; unlike
/// it, dropping it discards what is buffered: call [`Write::flush`].
///
/// ```
/// use std::io::Write;
/// let mut out = Vec::new();
/// let mut w = mfc_core::dtoa::TextWriter::new(&mut out);
/// write!(w, "x ").unwrap();
/// for x in [0.1 + 0.2, -1e-7, 2.5e3] {
///     w.f64(x, b' ').unwrap();
/// }
/// w.flush().unwrap();
/// drop(w);
/// assert_eq!(out, b"x 0.30000000000000004 -0.0000001 2500 ");
/// ```
pub struct TextWriter<W: Write> {
    out: W,
    buf: Box<[u8; BUF_LEN]>,
    len: usize,
}

impl<W: Write> TextWriter<W> {
    pub fn new(out: W) -> Self {
        TextWriter {
            out,
            buf: vec![0; BUF_LEN]
                .into_boxed_slice()
                .try_into()
                .expect("BUF_LEN bytes"),
            len: 0,
        }
    }

    /// Append `format!("{x}")`, then `end`.
    #[inline]
    pub fn f64(&mut self, x: f64, end: u8) -> io::Result<()> {
        if self.len > BUF_LEN - ROOM - 1 {
            self.drain()?;
        }
        let room: &mut [u8; ROOM] = (&mut self.buf[self.len..self.len + ROOM])
            .try_into()
            .expect("the drain above leaves ROOM + 1 bytes");
        let n = format_into(x, room);
        room[n] = end;
        self.len += n + 1;
        Ok(())
    }

    fn drain(&mut self) -> io::Result<()> {
        self.out.write_all(&self.buf[..self.len])?;
        self.len = 0;
        Ok(())
    }
}

impl<W: Write> Write for TextWriter<W> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if bytes.len() > BUF_LEN - self.len {
            self.drain()?;
            if bytes.len() > BUF_LEN {
                return self.out.write(bytes);
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.drain()?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// What `write` leaves in the output of a flushed writer.
    fn written(write: impl FnOnce(&mut TextWriter<&mut Vec<u8>>)) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = TextWriter::new(&mut out);
        write(&mut w);
        w.flush().unwrap();
        drop(w);
        out
    }

    /// Format every `x` and `-x` with the writer and with std's `{}`, one
    /// per line, and require the same bytes; a mismatch names the value.
    fn check_all(xs: impl IntoIterator<Item = f64>) {
        let (mut want, mut vals) = (String::new(), Vec::new());
        let got = written(|w| {
            for x in xs {
                for x in [x, -x] {
                    w.f64(x, b'\n').unwrap();
                    writeln!(want, "{x}").unwrap();
                    vals.push(x);
                }
            }
        });
        let got = String::from_utf8(got).unwrap();
        for ((g, s), x) in got.lines().zip(want.lines()).zip(&vals) {
            assert_eq!(g, s, "bits {:#018x}", x.to_bits());
        }
        assert_eq!(got, want);
    }

    /// `5^i`, exactly.
    fn pow5_big(i: usize) -> Big {
        let mut p: Big = [0; LIMBS];
        p[0] = 1;
        for _ in 0..i {
            p = big_mul5(p);
        }
        p
    }

    fn bit_len(a: &Big) -> i32 {
        (0..LIMBS)
            .rev()
            .find(|&i| a[i] != 0)
            .map_or(0, |i| 64 * i as i32 + 64 - a[i].leading_zeros() as i32)
    }

    #[test]
    fn tables_hold_125_bit_powers_of_five() {
        for (i, &t) in POW5.iter().enumerate() {
            assert_eq!(pow5_bits(i as i32), bit_len(&pow5_big(i)), "5^{i}");
            assert_eq!(t >> (POW5_BITS - 1), 1, "POW5[{i}]");
        }
        for (i, &t) in POW5_INV.iter().enumerate().skip(1) {
            assert_eq!(t >> (POW5_BITS - 1), 1, "POW5_INV[{i}]");
        }
        // 5 = 101b; 2^125 + 1; 2^127 / 5 + 1.
        assert_eq!(POW5[1], 5 << 122);
        assert_eq!(POW5_INV[0], (1 << 125) + 1);
        assert_eq!(POW5_INV[1], (1 << 127) / 5 + 1);
    }

    /// SplitMix64: a seeded, dependency-free stream of bit patterns.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_std_on_random_bit_patterns() {
        let mut state = 0x0123_4567_89ab_cdef;
        check_all((0..1 << 20).map(|_| f64::from_bits(splitmix(&mut state))));
    }

    #[test]
    fn matches_std_on_powers_of_two_and_ten() {
        check_all((-1074..=1023).map(|e| 2f64.powi(e)));
        // Every 1e±k and its two neighbours, over the whole range.
        check_all((-324..=308).flat_map(|k| {
            let b = format!("1e{k}").parse::<f64>().unwrap().to_bits();
            [b.saturating_sub(1), b, b + 1].map(f64::from_bits)
        }));
    }

    #[test]
    fn matches_std_on_extremes_and_specials() {
        let two53 = (1u64 << 53) as f64;
        check_all([
            0.0,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::MAX,
            f64::from_bits(f64::MAX.to_bits() - 1),
            f64::MIN_POSITIVE,
            f64::EPSILON,
            0.1,
            0.3,
            1.0 / 3.0,
            123456.789,
            // Exactly halfway between the two nearest 17-digit decimals:
            // std rounds such a tie up.
            (1u64 << 50) as f64 + 0.25,
            (1u64 << 50) as f64 + 0.75,
            146_510_087_534_590.0 + 0.125,
        ]);
        // Subnormal extremes and the normal boundary.
        check_all(
            [
                1,
                2,
                3,
                0x000f_ffff_ffff_fffe,
                0x000f_ffff_ffff_ffff,
                0x0010_0000_0000_0001,
            ]
            .map(f64::from_bits),
        );
        // Integers around 2^53, where the spacing becomes 2, and small ones.
        check_all((0..64).flat_map(|d| [two53 - d as f64, two53 + 2.0 * d as f64, d as f64]));
    }

    #[test]
    fn longest_texts_fit_and_stream_across_drains() {
        for (x, len) in [(-f64::from_bits(1), MAX_LEN), (-f64::MAX, 310)] {
            assert_eq!(written(|w| w.f64(x, b'\n').unwrap()).len(), len + 1);
        }
        // 2 000 texts of 327–328 bytes fill the buffer ten times over.
        check_all(std::iter::repeat_n(f64::from_bits(1), 1000));
    }

    #[test]
    fn writes_keep_their_order_around_the_buffer() {
        let big = vec![b'x'; BUF_LEN + 3];
        let out = written(|w| {
            w.write_all(b"a").unwrap();
            w.f64(1.5, b' ').unwrap();
            w.write_all(&big).unwrap();
            w.f64(-0.0, b'\n').unwrap();
        });
        assert_eq!(&out[..5], b"a1.5 ");
        assert_eq!(&out[5..5 + big.len()], &big[..]);
        assert_eq!(&out[5 + big.len()..], b"-0\n");
    }
}
