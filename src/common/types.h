/**
 * @file
 * Fundamental scalar types and global constants shared by every ISAAC
 * subsystem.
 */

#ifndef ISAAC_COMMON_TYPES_H
#define ISAAC_COMMON_TYPES_H

#include <cstddef>
#include <cstdint>

namespace isaac {

/** A simulation cycle index. One ISAAC cycle is one crossbar read. */
using Cycle = std::uint64_t;

/** The crossbar read latency that defines one ISAAC cycle (Sec. IV). */
constexpr double kCycleNs = 100.0;

/** Digital clock of the tile peripherals (Table I: 1.2 GHz). */
constexpr double kTileClockGHz = 1.2;

/** Bits in the fixed-point data path (Sec. V: 16-bit arithmetic). */
constexpr int kDataBits = 16;

/** Bytes per activation / weight in the digital domain. */
constexpr int kDataBytes = kDataBits / 8;

/** 16-bit fixed-point activation / weight as stored in buffers. */
using Word = std::int16_t;

/**
 * Destructive-interference granularity assumed by the false-sharing
 * audit. Hot shared structures (epoch-log slots, engine tiles) are
 * padded to this boundary so two threads never bounce one line. 64 bytes covers x86-64 and most aarch64
 * parts; `std::hardware_destructive_interference_size` is deliberately
 * not used because it is an ABI hazard (its value may differ between
 * translation units compiled with different tuning flags).
 */
constexpr std::size_t kCacheLineBytes = 64;

/** Wide accumulator for exact dot products (up to ~2^47 fits easily). */
using Acc = std::int64_t;

} // namespace isaac

#endif // ISAAC_COMMON_TYPES_H
