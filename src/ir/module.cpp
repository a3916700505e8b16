#include "ir/module.hpp"

#include <cstring>

#include "support/assert.hpp"

namespace ilc::ir {

FuncId Module::add_function(Function fn) {
  funcs_.push_back(std::move(fn));
  return static_cast<FuncId>(funcs_.size() - 1);
}

RecordId Module::add_record(RecordType rec) {
  ILC_CHECK(!rec.fields.empty());
  records_.push_back(std::move(rec));
  return static_cast<RecordId>(records_.size() - 1);
}

GlobalId Module::add_global(Global g) {
  ILC_CHECK(g.count > 0);
  if (g.kind == GlobalKind::RawArray) {
    ILC_CHECK(g.elem_width == 1 || g.elem_width == 2 || g.elem_width == 4 ||
              g.elem_width == 8);
    ILC_CHECK(g.init.empty() || g.init.size() <= g.count);
  } else {
    ILC_CHECK(g.record != kNoRecord);
    ILC_CHECK(g.record < records_.size());
    ILC_CHECK(g.field_init.empty() ||
              g.field_init.size() == records_[g.record].fields.size());
  }
  globals_.push_back(std::move(g));
  return static_cast<GlobalId>(globals_.size() - 1);
}

Function& Module::function(FuncId id) {
  ILC_CHECK(id < funcs_.size());
  return funcs_[id];
}

const Function& Module::function(FuncId id) const {
  ILC_CHECK(id < funcs_.size());
  return funcs_[id];
}

FuncId Module::find_function(const std::string& fn_name) const {
  for (std::size_t i = 0; i < funcs_.size(); ++i)
    if (funcs_[i].name == fn_name) return static_cast<FuncId>(i);
  return kNoFunc;
}

const RecordType& Module::record(RecordId id) const {
  ILC_CHECK(id < records_.size());
  return records_[id];
}

Global& Module::global(GlobalId id) {
  ILC_CHECK(id < globals_.size());
  return globals_[id];
}

const Global& Module::global(GlobalId id) const {
  ILC_CHECK(id < globals_.size());
  return globals_[id];
}

GlobalId Module::find_global(const std::string& g_name) const {
  for (std::size_t i = 0; i < globals_.size(); ++i)
    if (globals_[i].name == g_name) return static_cast<GlobalId>(i);
  return kNoGlobal;
}

void Module::set_ptr_bytes(unsigned bytes) {
  ILC_CHECK(bytes == 4 || bytes == 8);
  ptr_bytes_ = bytes;
}

RecordLayout Module::record_layout(RecordId rec) const {
  return layout_record(record(rec), ptr_bytes_);
}

std::uint64_t Module::global_stride(GlobalId id) const {
  const Global& g = global(id);
  if (g.kind == GlobalKind::RawArray) {
    return g.elem_is_ptr ? ptr_bytes_ : g.elem_width;
  }
  return record_layout(g.record).stride;
}

std::uint64_t Module::global_bytes(GlobalId id) const {
  return global_stride(id) * global(id).count;
}

namespace {

void store_le(ZeroedBuffer& mem, std::uint64_t addr,
              std::uint64_t value, unsigned bytes) {
  ILC_CHECK(addr + bytes <= mem.size());
  for (unsigned i = 0; i < bytes; ++i)
    mem[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

}  // namespace

ImageLayout Module::image_layout() const {
  // Null guard, then each global aligned to 64 bytes, then the stack.
  ImageLayout lay;
  lay.ptr_bytes = ptr_bytes_;
  std::uint64_t addr = ImageLayout::kNullGuard;
  lay.global_base.resize(globals_.size());
  for (std::size_t i = 0; i < globals_.size(); ++i) {
    addr = (addr + 63) / 64 * 64;
    lay.global_base[i] = addr;
    addr += global_bytes(static_cast<GlobalId>(i));
  }
  lay.stack_base = (addr + 63) / 64 * 64;
  lay.stack_size = kStackSize;
  return lay;
}

MemoryImage Module::build_image() const {
  MemoryImage img{image_layout(), {}};
  img.bytes.reset(img.size());

  // Look each global's stride up once, not once per pointer value.
  std::vector<std::uint64_t> stride(globals_.size());
  for (std::size_t i = 0; i < globals_.size(); ++i)
    stride[i] = global_stride(static_cast<GlobalId>(i));
  auto resolve_ptr = [&](GlobalId target, std::int64_t index) -> std::uint64_t {
    if (index < 0) return 0;  // null
    ILC_CHECK_MSG(target != kNoGlobal, "pointer init without ptr_target");
    ILC_CHECK(target < globals_.size());
    const std::uint64_t a = img.global_base[target] +
                            static_cast<std::uint64_t>(index) * stride[target];
    ILC_CHECK(a < img.bytes.size());
    return a;
  };

  // Serialize initial data.
  for (std::size_t gi = 0; gi < globals_.size(); ++gi) {
    const Global& g = globals_[gi];
    const std::uint64_t base = img.global_base[gi];
    if (g.kind == GlobalKind::RawArray) {
      const unsigned bytes = g.elem_is_ptr ? ptr_bytes_ : g.elem_width;
      for (std::size_t e = 0; e < g.init.size(); ++e) {
        std::uint64_t v = static_cast<std::uint64_t>(g.init[e]);
        if (g.elem_is_ptr) v = resolve_ptr(g.ptr_target, g.init[e]);
        store_le(img.bytes, base + e * bytes, v, bytes);
      }
    } else {
      if (g.field_init.empty()) continue;
      const RecordLayout lay = record_layout(g.record);
      const RecordType& rec = records_[g.record];
      for (std::size_t f = 0; f < rec.fields.size(); ++f) {
        const FieldInit& fi = g.field_init[f];
        const bool is_ptr = rec.fields[f].kind == FieldKind::Ptr;
        for (std::size_t e = 0; e < fi.values.size(); ++e) {
          ILC_CHECK(e < g.count);
          std::uint64_t v = static_cast<std::uint64_t>(fi.values[e]);
          if (is_ptr) v = resolve_ptr(fi.ptr_target, fi.values[e]);
          store_le(img.bytes, base + e * lay.stride + lay.offsets[f], v,
                   lay.widths[f]);
        }
      }
    }
  }
  return img;
}

std::size_t Module::code_size() const {
  std::size_t n = 0;
  for (const auto& f : funcs_) n += f.size();
  return n;
}

}  // namespace ilc::ir
