package org.apache.spark

/** The listener bus is asynchronous and its handle is package-private, so
  * this one-liner lives under `org.apache.spark`: a test that counts
  * listener events waits until every event posted so far was delivered.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
