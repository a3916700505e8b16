// Module: functions + record types + globals + pointer width, and the
// construction of the initial memory image the simulator executes against.
//
// Pointer initialization is symbolic: a pointer-valued initializer holds an
// *element index* into a target global (or -1 for null) and is resolved to
// an absolute address only when the image is built. This keeps initial data
// valid across re-layouts (e.g. after 64→32-bit pointer compression).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define ILC_ZEROBUF_HAS_MMAP 1
#else
#define ILC_ZEROBUF_HAS_MMAP 0
#endif

#include "ir/function.hpp"
#include "ir/types.hpp"

namespace ilc::ir {

enum class GlobalKind : std::uint8_t { RawArray, RecordArray };

/// Initializer for one field of a record-array global.
struct FieldInit {
  /// One value per element; empty means zero-fill. For Ptr fields the value
  /// is an element index into `ptr_target` (-1 = null).
  std::vector<std::int64_t> values;
  GlobalId ptr_target = kNoGlobal;
};

struct Global {
  std::string name;
  GlobalKind kind = GlobalKind::RawArray;
  std::uint64_t count = 0;  // number of elements / records

  // RawArray only:
  std::uint8_t elem_width = 8;  // 1, 2, 4, or 8 bytes
  bool elem_is_ptr = false;     // width follows module pointer width
  GlobalId ptr_target = kNoGlobal;     // target for pointer elements
  std::vector<std::int64_t> init;      // empty = zero-fill

  // RecordArray only:
  RecordId record = kNoRecord;
  std::vector<FieldInit> field_init;  // one per record field (or empty)
};

/// A byte buffer that starts life all-zero. Large buffers are backed by
/// anonymous mmap so the kernel hands back lazily mapped zero pages:
/// creating a ~1MB image (mostly untouched stack) costs a syscall instead
/// of a full memset, and pages the simulated program never touches are
/// never faulted in. What a fresh image does cost is a fault per page its
/// initializers or its run touch, and the unmap at the end, so the search
/// evaluator keeps one image per thread and restarts it
/// (sim::Simulator::restart) instead of mapping one per candidate. calloc
/// alone is not enough — glibc's sliding mmap threshold moves such
/// allocations onto the heap after the first free, where calloc must
/// memset the whole extent. Small buffers stay on calloc (a syscall per
/// tiny image would be the slower choice).
class ZeroedBuffer {
 public:
  ZeroedBuffer() = default;
  ~ZeroedBuffer() { release(); }
  ZeroedBuffer(const ZeroedBuffer& o) { *this = o; }
  ZeroedBuffer& operator=(const ZeroedBuffer& o) {
    if (this != &o) {
      reset(o.size_);
      if (size_ != 0) std::memcpy(data_, o.data_, size_);
    }
    return *this;
  }
  ZeroedBuffer(ZeroedBuffer&& o) noexcept
      : data_(o.data_), size_(o.size_), mapped_(o.mapped_) {
    o.data_ = nullptr;
    o.size_ = 0;
    o.mapped_ = false;
  }
  ZeroedBuffer& operator=(ZeroedBuffer&& o) noexcept {
    if (this != &o) {
      release();
      data_ = o.data_;
      size_ = o.size_;
      mapped_ = o.mapped_;
      o.data_ = nullptr;
      o.size_ = 0;
      o.mapped_ = false;
    }
    return *this;
  }

  /// Discard contents and become `n` zero bytes.
  void reset(std::uint64_t n) {
    release();
    if (n == 0) return;
#if ILC_ZEROBUF_HAS_MMAP
    if (n >= kMmapThreshold) {
      void* p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p != MAP_FAILED) {
        data_ = static_cast<std::uint8_t*>(p);
        size_ = n;
        mapped_ = true;
        return;
      }
    }
#endif
    data_ = static_cast<std::uint8_t*>(std::calloc(n, 1));
    if (data_ == nullptr) throw std::bad_alloc();
    size_ = n;
  }

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::uint64_t size() const { return size_; }
  std::uint8_t& operator[](std::uint64_t i) { return data_[i]; }
  const std::uint8_t& operator[](std::uint64_t i) const { return data_[i]; }

 private:
  /// Below this, a syscall per buffer would cost more than the memset.
  static constexpr std::uint64_t kMmapThreshold = 256 * 1024;

  void release() noexcept {
#if ILC_ZEROBUF_HAS_MMAP
    if (mapped_) {
      ::munmap(data_, size_);
    } else
#endif
    {
      std::free(data_);
    }
    data_ = nullptr;
    size_ = 0;
    mapped_ = false;
  }

  std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
  bool mapped_ = false;
};

/// Where a module's data lives in its memory image: a null guard, each
/// global at a 64-byte-aligned base, then the stack. Two modules with equal
/// layouts can run against one image (Simulator::switch_module, restart).
struct ImageLayout {
  /// Address 0..kNullGuard-1 is never mapped (null-dereference detection).
  static constexpr std::uint64_t kNullGuard = 64;

  std::vector<std::uint64_t> global_base;   // base address per global
  std::uint64_t stack_base = 0;             // frames grow upward from here
  std::uint64_t stack_size = 0;
  unsigned ptr_bytes = 8;

  /// Total bytes: the globals, then the stack.
  std::uint64_t size() const { return stack_base + stack_size; }
  bool operator==(const ImageLayout&) const = default;
};

/// The executable image: a layout plus the initial memory contents.
struct MemoryImage : ImageLayout {
  ZeroedBuffer bytes;  // size() bytes, the full address space
};

class Module {
 public:
  std::string name;

  // --- construction -------------------------------------------------
  FuncId add_function(Function fn);
  RecordId add_record(RecordType rec);
  GlobalId add_global(Global g);

  // --- access --------------------------------------------------------
  Function& function(FuncId id);
  const Function& function(FuncId id) const;
  FuncId find_function(const std::string& fn_name) const;  // kNoFunc if absent

  const std::vector<Function>& functions() const { return funcs_; }
  std::vector<Function>& functions() { return funcs_; }

  const RecordType& record(RecordId id) const;
  const std::vector<RecordType>& records() const { return records_; }

  Global& global(GlobalId id);
  const Global& global(GlobalId id) const;
  GlobalId find_global(const std::string& g_name) const;
  const std::vector<Global>& globals() const { return globals_; }

  // --- layout ---------------------------------------------------------
  /// Current pointer width in bytes (8 by default; 4 after compression).
  unsigned ptr_bytes() const { return ptr_bytes_; }
  void set_ptr_bytes(unsigned bytes);

  /// Layout of `rec` under the current pointer width.
  RecordLayout record_layout(RecordId rec) const;

  /// Element stride in bytes of a global under the current pointer width.
  std::uint64_t global_stride(GlobalId id) const;
  /// Total byte size of a global under the current pointer width.
  std::uint64_t global_bytes(GlobalId id) const;

  /// Bytes reserved for the simulated stack above the globals.
  static constexpr std::uint64_t kStackSize = 1 << 20;

  /// Addresses of the globals and the stack under the current pointer
  /// width, without building the image.
  ImageLayout image_layout() const;

  /// Build the initial memory image (globals serialized, stack reserved).
  MemoryImage build_image() const;

  /// Total static instruction count across functions.
  std::size_t code_size() const;

 private:
  std::vector<Function> funcs_;
  std::vector<RecordType> records_;
  std::vector<Global> globals_;
  unsigned ptr_bytes_ = 8;
};

}  // namespace ilc::ir
